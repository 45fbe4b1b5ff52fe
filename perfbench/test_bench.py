"""Self-test of the benchmark's checks: a deliberately wrong expectation
must fail each workload's verdict check, and the right one must pass; the
reference kernel must answer and stop, and the spawner must report a
child's own memory.

    python3 perfbench/test_bench.py        # from the root of a checkout

It builds like run.py, then drives one real op per workload: a one-shot
``posl-check`` child, a batch invocation, a submission to a real
``posl-check serve`` and a watch round through ``pbdrive``.
"""

import os
import resource
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402
import run as bench  # noqa: E402

WORK = os.path.join(bench.RUNS, "selftest-%d" % os.getpid())


def flipped(q):
    return dict(q, expect=[1 - e for e in q["expect"]])


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 11))
        self.assertEqual(bench.percentile(xs, 50), 5)
        self.assertEqual(bench.percentile(xs, 90), 9)
        self.assertEqual(bench.percentile(xs, 91), 10)
        self.assertEqual(bench.percentile([7.0], 99), 7.0)

    def test_failed_ops_sort_last(self):
        xs = sorted([1.0, bench.FAILED, 2.0])
        self.assertEqual(bench.percentile(xs, 90), bench.FAILED)


class Helpers(unittest.TestCase):
    def test_spawner_reports_the_childs_own_rss(self):
        """Spawned from this process, a child's max RSS would read at least
        this process's own."""
        _, driver = bench.build()
        with bench.Spawner(driver) as spawner:
            code, _, _, rss = spawner.run(["/bin/true"])
        self.assertEqual(code, 0)
        self.assertLess(rss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    def test_reference_sample_and_stop(self):
        """The kernel reports a positive CPU time every time it is asked,
        and its process has ended when the block is left."""
        _, driver = bench.build()
        with bench.Reference(driver, os.sched_getaffinity(0)) as ref:
            self.assertTrue(all(ref.sample() > 0 for _ in range(3)))
        self.assertIsNotNone(ref.proc.returncode)

    def test_at_ref(self):
        self.assertAlmostEqual(bench.at_ref(3.0, 2.0), 1.5 * bench.REF_MS)
        self.assertEqual(bench.per_norm_s(4, [500.0, bench.FAILED, 1500.0]), 2.0)


class WrongExpectationFails(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.posl, cls.driver = bench.build()
        cls.dir = bench.fresh_dir(os.path.join(WORK, "corpus"))
        cls.desc = corpus.generate(cls.dir, 3, 5)
        cls.single = next(q for q in cls.desc["queries"] if not q["composite"])
        cls.family = cls.desc["families"][0]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def cli(self, kind, item, desc):
        with bench.Spawner(self.driver) as spawner:
            return bench.cli_op(spawner, self.posl, self.dir, desc, kind, item,
                                os.path.join(WORK, "b.json"))[0]

    def test_cli_single(self):
        self.assertTrue(self.cli("single", self.single, self.desc))
        self.assertFalse(self.cli("single", flipped(self.single), self.desc))

    def test_cli_batch(self):
        self.assertTrue(self.cli("batch", self.family, self.desc))
        wrong = dict(self.desc, queries=list(self.desc["queries"]))
        i = self.family["queries"][0]
        wrong["queries"][i] = flipped(wrong["queries"][i])
        self.assertFalse(self.cli("batch", self.family, wrong))

    def test_serve(self):
        proc, conn = bench.start_server(self.posl, WORK)
        try:
            payload = bench.submit_payload(self.family, self.single)
            reply = bench.call(conn, payload)
            self.assertTrue(bench.check_reply(reply, self.single))
            self.assertFalse(bench.check_reply(reply, flipped(self.single)))
        finally:
            bench.stop_server(proc, conn)

    def test_watch(self):
        d = bench.watch_inputs(WORK, 3)
        res = bench.pbdrive(self.driver, ["watch", "--dir", d, "--rounds", "0"])
        self.assertEqual(res["cold_failed"], 0)
        path = os.path.join(d, "watch.expect")
        with open(path) as f:
            lines = f.read().splitlines()
        fam, *e = lines[0].split()
        lines[0] = " ".join([fam] + [str(1 - int(x)) for x in e])
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        res = bench.pbdrive(self.driver, ["watch", "--dir", d, "--rounds", "0"])
        self.assertEqual(res["cold_failed"], 1)

    def test_watch_round_failure_is_counted(self):
        """A wrong expectation for the state an edit round leads to fails
        that round through run_watch: it is counted and enters the
        percentiles as slower than any limit."""
        real_inputs, real_watch = bench.watch_inputs, dict(bench.WATCH)

        def inputs(work, seed):
            d = real_inputs(work, seed)
            with open(os.path.join(d, "watch.schedule")) as f:
                fam = f.readline().split()[0]  # round 0: a trace edit of fam
            path = os.path.join(d, "watch.expect")
            with open(path) as f:
                rows = [line.split() for line in f.read().splitlines()]
            for row in rows:
                if row[0] == fam:
                    row[3] = str(1 - int(row[3]))  # state 2*trace_bit + vocab_bit = 2
            with open(path, "w") as f:
                f.write("".join(" ".join(row) + "\n" for row in rows))
            return d

        bench.watch_inputs = inputs
        bench.WATCH.update(families=5, setup_reps=1, rounds_per_s=4)
        try:
            attempted, failed, metrics = bench.run_watch(self.driver, WORK, 3, 1)
        finally:
            bench.watch_inputs = real_inputs
            bench.WATCH.update(real_watch)
        self.assertEqual(attempted, 4)
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(metrics["norm_p90_ms"]["value"], 1e9)


if __name__ == "__main__":
    unittest.main()
