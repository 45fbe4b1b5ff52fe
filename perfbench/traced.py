"""The traced run: each workload's time split over posl's layers.

A separate run, never one of the timed ones (``run.py --trace 1``).  The
CLI children and the server cannot be entered from outside, so their ops
are replayed in-process by ``pbdrive`` through the same public functions,
in the order posl-check and Serve call them, with a span around each call
(see ``_driver/pbdrive.ml``).  The same ops are also run for real, children
spawned or submissions sent one at a time, and ``trace.coverage`` divides
what the stages explain by that real end-to-end time: on cli-oneshot the
process start (``cli.start_ms``) plus the replay's stage time per op, over
the children's spawn-to-exit time; on serve-mixed the replay's stage time
per op over the round trip to the shipped server.  The server's own queue
and handle figures come from a real ``posl-check serve --trace`` run: its
exported spans and its ``stats``/``metrics`` op deltas over a phase of the
timed run's paced traffic.  The watch workload runs in-process anyway,
with spans around ``Watch.poll`` and probes of the calls a round makes for
the edited file.

Every metric below is printed on every workload; a layer a workload does
not touch reads 0 (README.md lists which layer is on which path).
"""

import json
import os
import random
import statistics
import time

import corpus
import run as bench

# name, unit, better -- the per_layer list of BENCHMARK.json, in order
PER_LAYER = [
    ("cli.start_ms", "ms", "lower"),
    ("lang.parse_ms", "ms", "lower"),
    ("lang.elab_ms", "ms", "lower"),
    ("engine.manifest_entries_ms", "ms", "lower"),
    ("engine.manifest_elaborate_ms", "ms", "lower"),
    ("core.universe_ms", "ms", "lower"),
    ("core.refine_ms", "ms", "lower"),
    ("core.compose_ms", "ms", "lower"),
    ("tset.states_interned", "count/op", "lower"),
    ("tset.dfa_compiles", "count/op", "lower"),
    ("tset.dfa_compile_ms", "ms", "lower"),
    ("tset.dfa_hit_ratio", "ratio", "higher"),
    ("bmc.antichain_pairs", "count/op", "lower"),
    ("bmc.prune_ratio", "ratio", "higher"),
    ("bmc.deadlock_ms", "ms", "lower"),
    ("engine.digest_us", "us", "lower"),
    ("engine.cache_find_us", "us", "lower"),
    ("engine.cache_hit_ratio", "ratio", "higher"),
    ("engine.job_ms", "ms", "lower"),
    ("engine.plan_derived_ratio", "ratio", "higher"),
    ("engine.utilization", "ratio", "higher"),
    ("verdict.encode_us", "us", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.find_us", "us", "lower"),
    ("store.add_us", "us", "lower"),
    ("store.writes", "count/op", "lower"),
    ("serve.frame_us", "us", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("serve.encode_us", "us", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.handle_ms", "ms", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("watch.idle_poll_ms", "ms", "lower"),
    ("watch.round_ms", "ms", "lower"),
    ("watch.invalidated", "count/op", "lower"),
    ("watch.reuse_ratio", "ratio", "higher"),
    ("gc.minor_mb_per_op", "MiB/op", "lower"),
    ("gc.major_per_op", "count/op", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

CLI_REPLAY_OPS = 300  # ops replayed (a fixed number, so counts compare)
SERVE_REPLAY_OPS = 2000


def log_stages(res):
    stages = sorted(res.pop("stages", {}).items(), key=lambda kv: -kv[1])
    bench.log("stage self time, ms per op: " +
              ", ".join("%s %.4f" % (k, v) for k, v in stages if v > 0.0005))


def op_line(tag, q):
    """One replayed query, in the ops-file format pbdrive reads."""
    return " ".join([tag, q["file"], str(q["expect"][0]), q["kind"]] + q["names"]) + "\n"


def cli_start_ms(spawner, posl):
    return statistics.median(spawner.run([posl, "--version"])[1] * 1000 for _ in range(21))


def trace_cli(posl, driver, work, seed, seconds):
    d = bench.fresh_dir(os.path.join(work, "corpus"))
    desc = corpus.generate(d, seed, bench.CLI["families"])
    stream = bench.cli_ops(random.Random(seed), desc)
    replayed = [next(stream) for _ in range(CLI_REPLAY_OPS)]
    ops = os.path.join(work, "ops")
    with open(ops, "w") as f:
        for kind, item in replayed:
            if kind == "single":
                f.write(op_line("single", item))
            else:
                expect = [desc["queries"][i]["expect"][0] for i in item["queries"]]
                f.write("batch %s %s\n" % (item["manifest"], ",".join(map(str, expect))))
    out_json = os.path.join(work, "batch.json")
    res = bench.pbdrive(driver, ["replay-cli", "--dir", d, "--ops", ops, "--json", out_json])
    # The same ops as real children: what the stages have to explain.
    spawned, failed = 0.0, res["failed"]
    with bench.Spawner(driver) as spawner:
        res["cli.start_ms"] = cli_start_ms(spawner, posl)
        for kind, item in replayed:
            ok, dt, _, _, _ = bench.cli_op(spawner, posl, d, desc, kind, item, out_json)
            spawned += dt * 1000
            failed += not ok
    e2e = spawned / len(replayed)
    res["trace.coverage"] = (res["cli.start_ms"] + res["covered_ms"]) / e2e
    bench.log("cli-oneshot: spawn to exit %.3f ms per op; process start %.3f ms + stages %.3f ms"
              % (e2e, res["cli.start_ms"], res["covered_ms"]))
    return 2 * res["ops"], failed, res


def server_counters(conn):
    reply = bench.call(conn, json.dumps({"op": "metrics"}))
    out = {}
    for line in reply["metrics"].splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and "{" not in line:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def trace_serve(posl, driver, work, seed, seconds):
    d = bench.fresh_dir(os.path.join(work, "corpus"))
    desc = corpus.generate(d, seed, bench.SERVE["families"])
    rng = random.Random(seed)
    hot, fresh = bench.serve_split(rng, desc)
    traffic = bench.Traffic(rng, hot, fresh)
    replayed = [traffic.next() for _ in range(SERVE_REPLAY_OPS)]
    ops = os.path.join(work, "ops")
    with open(ops, "w") as f:
        for q in hot:
            f.write(op_line("warm", q))
        for q in replayed:
            f.write(op_line("q", q))
    res = bench.pbdrive(driver, ["replay-serve", "--dir", d, "--ops", ops,
                                 "--store", os.path.join(work, "rstore")])
    attempted, failed = res["ops"], res["failed"]

    # The shipped server, traced.  First the replayed ops one at a time:
    # their round trips are what the stages have to explain.  Then a phase
    # of the timed run's paced traffic, continuing the same sequence: queue
    # wait, handle time, refusals and runtime deltas.
    trace_file = os.path.abspath(os.path.join(work, "serve-trace.json"))
    proc, conn = bench.start_server(posl, work, extra=["--trace", trace_file])
    try:
        for q in hot:
            bench.call(conn, bench.submit_payload(desc["families"][q["family"]], q))
        trip = 0.0
        for q in replayed:
            t0 = time.perf_counter()
            reply = bench.call(conn, bench.submit_payload(desc["families"][q["family"]], q))
            trip += time.perf_counter() - t0
            failed += not bench.check_reply(reply, q)
        attempted += len(replayed)
        c0, s0 = server_counters(conn), bench.call(conn, json.dumps({"op": "stats"}))
        t0 = time.perf_counter()
        with bench.Reference(driver, bench.split_cpus()[1]) as ref:
            cpu, _, _, f1, _ = bench.paced(proc, conn, traffic, desc, bench.SERVE["rate_qps"],
                                           seconds / 2, ref)
        wall = time.perf_counter() - t0
        c1, s1 = server_counters(conn), bench.call(conn, json.dumps({"op": "stats"}))
    finally:
        bench.stop_server(proc, conn)
    n1 = len(cpu)
    attempted += n1
    failed += f1
    e2e = trip * 1000 / len(replayed)
    res["trace.coverage"] = res["covered_ms"] / e2e
    bench.log("serve-mixed: round trip %.3f ms per op one at a time; stages %.3f ms"
              % (e2e, res["covered_ms"]))

    def dc(k):
        return c1.get(k, 0.0) - c0.get(k, 0.0)

    with open(trace_file) as f:
        events = json.load(f)
    events = events.get("traceEvents", events) if isinstance(events, dict) else events
    # The paced phase's submissions are the last n1 handled.
    handles = sorted((e["ts"], e["dur"] / 1000.0) for e in events
                     if e.get("name") == "serve.handle" and e.get("args", {}).get("op") == "submit")
    handles = [dur for _, dur in handles[-n1:]]
    n = max(1, n1)
    pairs, compiles = dc("posl_bmc_antichain_pairs_total"), dc("posl_tset_dfa_compile_ms_count")
    res.update({
        "serve.queue_wait_ms": dc("posl_serve_queue_wait_ms_sum") / max(1.0, dc("posl_serve_queue_wait_ms_count")),
        "serve.handle_ms": statistics.mean(handles) if handles else 0.0,
        "serve.rejected": s1["rejected_total"] - s0["rejected_total"],
        "serve.expired": s1["expired_total"] - s0["expired_total"],
        "engine.utilization": (s1["engine"]["busy_ms"] - s0["engine"]["busy_ms"]) / (wall * 1000.0 * bench.SERVE["workers"]),
        "tset.states_interned": dc("posl_tset_interned_states_total") / n,
        "tset.dfa_compiles": compiles / n,
        "tset.dfa_compile_ms": dc("posl_tset_dfa_compile_ms_sum") / compiles if compiles else 0.0,
        "bmc.antichain_pairs": pairs / n,
        "bmc.prune_ratio": dc("posl_bmc_antichain_prunes_total") / (pairs + dc("posl_bmc_antichain_prunes_total")) if pairs else 0.0,
        "store.writes": dc("posl_engine_store_writes_total") / n,
        "gc.minor_mb_per_op": dc("posl_gc_minor_words_total") * 8 / 1048576.0 / n,
        "gc.major_per_op": dc("posl_gc_major_collections_total") / n,
    })
    bench.log("serve-mixed traced server: %d ops, %d serve.handle spans kept, CPU p50 %.3f ms"
              % (n1, len(handles), bench.percentile(sorted(cpu), 50)))
    return attempted, failed, res


def trace_watch(posl, driver, work, seed, seconds):
    d = bench.watch_inputs(work, seed)
    rounds = int(seconds * bench.WATCH["rounds_per_s"])
    res = bench.pbdrive(driver, ["watch", "--dir", d, "--rounds", str(rounds), "--trace"])
    return res["rounds"], res["failed"], res


def run(workload, posl, driver, work, seed, seconds):
    fn = {"cli-oneshot": trace_cli, "serve-mixed": trace_serve, "watch-edit": trace_watch}[workload]
    attempted, failed, res = fn(posl, driver, work, seed, seconds)
    log_stages(res)
    metrics = {name: {"value": float(res.get(name, 0.0)), "unit": unit}
               for name, unit, _ in PER_LAYER}
    bench.log("trace.coverage %.4f, trace.overhead %.4f"
              % (metrics["trace.coverage"]["value"], metrics["trace.overhead"]["value"]))
    return attempted, failed, metrics
