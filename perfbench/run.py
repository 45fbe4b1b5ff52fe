#!/usr/bin/env python3
"""The posl benchmark: one command per workload, every verdict checked.

    python3 perfbench/run.py --workload cli-oneshot --seed 1 --seconds 30 --trace 0

Run from the root of a posl checkout.  It builds ``posl-check``, the
benchmark's own OCaml driver and its C child spawner (``perfbench/_driver``)
from source in ``.bench_build/``, generates a seeded corpus under
``.bench_run/`` (see ``corpus.py``), runs the workload and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer breakdown of a
separate traced run (see ``traced.py``).

Workloads:
  cli-oneshot  one posl-check child at a time over the spec files
  serve-mixed  posl-check serve, one submission at a time at a fixed rate
  watch-edit   Watch.create/Watch.poll over one manifest, one edit a round

Every timed end-to-end figure is reference-normalised CPU time.  Each
measured op's CPU time (user + system of the process doing the work: the
posl-check child, the server, or the process hosting the watcher) is
divided by the CPU time of a fixed reference kernel (``pbdrive
reference``, standard library only) run on the same CPU right after it,
and multiplied by REF_MS: the op's CPU time on a machine where the kernel
takes REF_MS.  The program runs one domain and waits on nothing, so on an
idle machine its CPU time is its latency.  CPU time leaves out the time
the hypervisor or another process held the CPU; the ratio cancels the
CPU's own speed, which on a shared host swings by half within minutes and
moved wall-clock medians of identical code by a third between runs.  Raw
CPU and wall times are logged beside the metrics.
"""

import argparse
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.modules.setdefault("run", sys.modules[__name__])  # one copy for traced.py
import corpus  # noqa: E402

BUILD = ".bench_build"
RUNS = ".bench_run"
# Workload parameters; README.md records the same values.  setup_s is the
# median of ``setup_reps`` repetitions of the program's part of set-up; the
# benchmark's own input generation is not timed.  serve-mixed's paced loop
# and watch-edit run a fixed amount of work per --seconds (see README.md).
CLI = dict(families=300, block=20, batches_per_block=1, setup_reps=9)
SERVE = dict(families=600, hot_families=20, block=40, repeats_per_block=20,
             rate_qps=200.0, workers=1, setup_reps=5)
WATCH = dict(families=100, vocab_every=4, rounds_per_s=35, setup_reps=3)

# Pin every parallelism knob: one verification domain everywhere.
CHILD_ENV = dict(os.environ, POSL_DOMAINS="1")

# The reference kernel's nominal CPU time: a timed metric reads as on a
# machine where the kernel takes this long (about its time on a 2.1 GHz
# Xeon vCPU).
REF_MS = 1.0


class BenchError(Exception):
    """Set-up or build failure: the run prints no result and exits non-zero."""


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Statistics: raw samples, nearest-rank percentiles.

FAILED = math.inf  # a failed op is slower than any limit


def percentile(sorted_xs, p):
    """Nearest-rank percentile of an ascending list (no interpolation)."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_xs)))
    return sorted_xs[k - 1]


def tail_report(name, samples):
    """Log count, p50, p90, a ladder and the highest percentile with >= 10
    samples beyond it; return (p50, p90)."""
    xs = sorted(samples)
    n = len(xs)
    line = "%s: n=%d p50=%.4f p90=%.4f" % (name, n, percentile(xs, 50), percentile(xs, 90))
    for p in (99.9, 99, 95, 90):
        if n * (1 - p / 100.0) >= 10:
            line += " p%g=%.4f (highest percentile with >=10 samples beyond)" % (p, percentile(xs, p))
            break
    log(line)
    log("  ladder: " + " ".join("p%d=%.3f" % (p, percentile(xs, p)) for p in range(10, 100, 10)))
    return percentile(xs, 50), percentile(xs, 90)


def metric(value, unit):
    """A result entry; a percentile that fell on a failed op reads 1e9."""
    return {"value": value if math.isfinite(value) else 1e9, "unit": unit}


# ---------------------------------------------------------------------------
# Build

def build():
    """Build posl-check and the driver from the checkout's sources."""
    for need in ("dune-project", "bin/posl_check.ml", "lib", "perfbench/_driver/dune"):
        if not os.path.exists(need):
            raise BenchError("run from the root of a posl checkout (missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "dune-workspace"), "w") as f:
        f.write("(lang dune 3.0)\n")
    for name, target in (("posl", ".."), ("driver", "../perfbench/_driver")):
        link = os.path.join(BUILD, name)
        if os.path.islink(link) and os.readlink(link) != target:
            os.unlink(link)
        if not os.path.lexists(link):
            os.symlink(target, link)
    dune = shutil.which("dune")
    if not dune:
        raise BenchError("dune not found on PATH")
    cmd = [dune, "build", "--root", BUILD, "--display", "quiet",
           "./posl/bin/posl_check.exe", "./driver/pbdrive.exe", "./driver/spawn"]
    # dune's shared cache lives outside the checkout; build without it.
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        raise BenchError("build failed")
    out = os.path.join(BUILD, "_build", "default")
    return (os.path.join(out, "posl", "bin", "posl_check.exe"),
            os.path.join(out, "driver", "pbdrive.exe"))


def spawner_of(driver):
    """The child spawner (_driver/spawn.c), built beside the driver."""
    return os.path.join(os.path.dirname(driver), "spawn")


# ---------------------------------------------------------------------------
# Child processes

class Helper:
    """A helper process that answers each line sent to it with one line;
    stopped, and waited for, when the ``with`` block ends."""

    def __init__(self, argv, cpus):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=CHILD_ENV, preexec_fn=lambda: os.sched_setaffinity(0, cpus))

    def ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("%s exited" % self.proc.args[0])
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Spawner(Helper):
    """Runs children one at a time through the spawner (_driver/spawn.c):
    a child's max RSS is reported as at least its spawner's RSS, and this
    Python process's is larger than a one-shot posl-check's own."""

    def __init__(self, driver):
        super().__init__([spawner_of(driver)], os.sched_getaffinity(0))

    def run(self, argv):
        """Run a child to completion: (exit code, wall seconds, CPU
        seconds, max RSS MiB); CPU is the child's user + system time."""
        code, wall_us, cpu_us, rss_kb = map(int, self.ask("\t".join(argv)).split())
        return code, wall_us / 1e6, cpu_us / 1e6, rss_kb / 1024.0


class Reference(Helper):
    """A ``pbdrive reference`` process pinned to ``cpus``; ``sample()``
    runs the reference kernel once and returns its CPU ms."""

    def __init__(self, driver, cpus):
        super().__init__([driver, "reference"], cpus)

    def sample(self):
        return float(self.ask(""))


def at_ref(cpu_ms, ref_ms):
    """CPU ms at the reference speed."""
    return cpu_ms / ref_ms * REF_MS


def setup_at_ref(setup_s, refs_ms):
    """The median set-up's CPU seconds at the reference speed.  A set-up is
    too short for the kernel runs beside it to follow the CPU's speed, so
    it is scaled by the median kernel time of the whole run."""
    return at_ref(statistics.median(setup_s), statistics.median(refs_ms))


def per_norm_s(done, norm_ms):
    """Work done per CPU second at the reference speed, over the ops that
    did not fail."""
    busy = sum(x for x in norm_ms if x != FAILED) / 1000.0
    return done / busy if busy else 0.0


def one_cpu():
    """Pin this process, and so every child it starts, to one CPU."""
    cpu = {min(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    return cpu


def cpu_clock(pid):
    """CPU seconds (user + system, all threads) a live process has used so
    far, read from its CPU-time clock (the id clock_getcpuclockid(3)
    gives)."""
    return time.clock_gettime(((~pid) << 3) | 2)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def holds_ok(holds, expect):
    return (0 if holds else 1) == expect


# ---------------------------------------------------------------------------
# cli-oneshot

def single_deck(rng, desc):
    """Endless stream of one-shot queries with a fixed mix: each deck holds
    every (template, query) slot a one-shot CLI call can pose once, in a
    seeded order; a slot is served by the next family of its template."""
    fams = corpus.stratified(rng, desc["families"])
    by_tpl = {}
    for f in fams:
        by_tpl.setdefault(f["template"], []).append(f)
    slots = [(t, k) for t, fs in by_tpl.items()
             for k, i in enumerate(fs[0]["queries"]) if not desc["queries"][i]["composite"]]
    used = {}
    while True:
        rng.shuffle(slots)
        for t, k in slots:
            n = used.get((t, k), 0)
            used[(t, k)] = n + 1
            fam = by_tpl[t][n % len(by_tpl[t])]
            yield desc["queries"][fam["queries"][k]]


def cli_ops(rng, desc):
    """Endless op stream: blocks of CLI['block'] ops, CLI['batches_per_block']
    of them per-family batch manifests (templates in turn), the rest
    single queries from :func:`single_deck`."""
    singles = single_deck(rng, desc)
    fams = corpus.stratified(rng, desc["families"])
    fi = 0
    while True:
        batch_at = set(rng.sample(range(CLI["block"]), CLI["batches_per_block"]))
        for slot in range(CLI["block"]):
            if slot in batch_at:
                yield ("batch", fams[fi % len(fams)])
                fi += 1
            else:
                yield ("single", next(singles))


def cli_setup(spawner, posl, work, seed):
    """Generate the corpus, then run the parse gate (one ``batch`` pass with
    one query per file, which also pages the binary in) CLI['setup_reps']
    times.  Return the corpus and each gate's CPU seconds."""
    d = os.path.join(work, "corpus")
    desc = corpus.generate(d, seed, CLI["families"])
    times = []
    for _ in range(CLI["setup_reps"]):
        code, _, cpu, _ = spawner.run(
            [posl, "batch", os.path.join(d, "gate.manifest"), "--domains", "1"])
        if code != 0:
            raise BenchError("parse gate failed (exit %d)" % code)
        times.append(cpu)
    return desc, d, times


def cli_op(spawner, posl, d, desc, kind, item, out_json):
    """One posl-check invocation, checked: (ok, wall seconds, CPU seconds,
    max RSS MiB, queries answered).  A single query is checked by its exit
    code, a batch by every result of its --json file."""
    if kind == "single":
        argv = [posl, item["kind"], os.path.join(d, item["file"])] + item["names"]
        code, dt, cpu, rss = spawner.run(argv)
        return code == item["expect"][0], dt, cpu, rss, 1
    argv = [posl, "batch", os.path.join(d, item["manifest"]), "--domains", "1", "--json", out_json]
    code, dt, cpu, rss = spawner.run(argv)
    if code not in (0, 1):
        return False, dt, cpu, rss, 0
    with open(out_json) as f:
        results = json.load(f)["results"]
    expect = [desc["queries"][i]["expect"][0] for i in item["queries"]]
    ok = len(results) == len(expect) and all(
        holds_ok(r["holds"], e) for r, e in zip(results, expect))
    return ok, dt, cpu, rss, len(results)


def run_cli(posl, driver, work, seed, seconds):
    with Reference(driver, one_cpu()) as ref, Spawner(driver) as spawner:
        desc, d, setup = cli_setup(spawner, posl, work, seed)
        rng = random.Random(seed)
        out_json = os.path.join(work, "batch.json")
        norm, cpu, wall, refs, answered, failed, peak = [], [], [], [], 0, 0, 0.0
        t_start = time.perf_counter()
        for kind, item in cli_ops(rng, desc):
            if time.perf_counter() - t_start >= seconds:
                break
            ok, dt, ct, rss, n = cli_op(spawner, posl, d, desc, kind, item, out_json)
            r = ref.sample()
            answered += n
            peak = max(peak, rss)
            if not ok:
                failed += 1
                log("FAILED %s %s" % (kind, item.get("names") or item["manifest"]))
            norm.append(at_ref(ct * 1000, r) if ok else FAILED)
            cpu.append(ct * 1000 if ok else FAILED)
            wall.append(dt * 1000 if ok else FAILED)
            refs.append(r)
    p50, p90 = tail_report("cli-oneshot norm_ms (child CPU per invocation, at reference speed)", norm)
    tail_report("cli-oneshot cpu_ms (child user+system, not gated)", cpu)
    tail_report("cli-oneshot wall_ms (spawn to exit, not gated)", wall)
    log("cli-oneshot: %d invocations, %d queries answered in %.2f s; reference kernel "
        "median %.4f ms" % (len(norm), answered, time.perf_counter() - t_start,
                            statistics.median(refs)))
    return len(norm), failed, {
        "setup_s": metric(setup_at_ref(setup, refs), "s"),
        "norm_p50_ms": metric(p50, "ms"),
        "norm_p90_ms": metric(p90, "ms"),
        "norm_throughput": metric(per_norm_s(answered, norm), "1/s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }


# ---------------------------------------------------------------------------
# serve-mixed: framing, connections, traffic

def frame(payload):
    data = payload.encode()
    return b"%d %s\n" % (len(data), data)


class Conn:
    """One non-blocking client connection to the server."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.sock.setblocking(False)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.sock, selectors.EVENT_READ)
        self.inbuf = b""
        self.outbuf = b""

    def flush(self):
        while self.outbuf:
            try:
                n = self.sock.send(self.outbuf)
            except BlockingIOError:
                return
            self.outbuf = self.outbuf[n:]

    def frames(self):
        """Read what is available; return the complete reply payloads."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise BenchError("server closed the connection")
        self.inbuf += chunk
        out = []
        while True:
            sp = self.inbuf.find(b" ")
            if sp < 0:
                break
            n = int(self.inbuf[:sp])
            if len(self.inbuf) < sp + 1 + n + 1:
                break
            out.append(self.inbuf[sp + 1:sp + 1 + n])
            self.inbuf = self.inbuf[sp + 1 + n + 1:]
        return out

    def close(self):
        self.sel.close()
        self.sock.close()


def request(conn, data, timeout=60.0):
    """Send one framed request on an idle connection; return its reply."""
    conn.outbuf += data
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        conn.flush()
        conn.sel.select(0.05)
        got = conn.frames()
        if got:
            return json.loads(got[0])
    raise BenchError("no reply within %.0f s" % timeout)


def call(conn, payload, timeout=60.0):
    return request(conn, frame(payload), timeout)


def submit_payload(fam, q):
    return json.dumps({"op": "submit", "spec_text": fam["text"],
                       "queries": [{"kind": q["kind"], "specs": q["names"]}]})


def framed(desc, q):
    """The framed submission of ``q``, built once per query."""
    if "frame" not in q:
        q["frame"] = frame(submit_payload(desc["families"][q["family"]], q))
    return q["frame"]


def check_reply(reply, q):
    """True iff the reply answers the query with its expected status."""
    if not reply.get("ok"):
        return False
    res = reply.get("results") or []
    return len(res) == 1 and "holds" in res[0] and holds_ok(res[0]["holds"], q["expect"][0])


class Traffic:
    """The serve-mixed op sequence, after the repository's own model of
    service traffic (bench P7 and the CI load test, ``--repeat 0.5``): in
    every SERVE['block'] ops, SERVE['repeats_per_block'] resubmit a query
    drawn uniformly from all those sent before, the rest are fresh queries
    taken family by family (a new family's first query parses and builds
    its context).  Every earlier query is answered before a repeat of it
    is sent, so a repeat is a cache hit."""

    def __init__(self, rng, hot, fresh):
        self.rng, self.fresh = rng, fresh
        self.sent = list(hot)
        self.fi = 0
        self.slots = []
        self.repeats = self.fresh_sent = 0

    def next(self):
        if not self.slots:
            n = SERVE["block"]
            rep = set(self.rng.sample(range(n), SERVE["repeats_per_block"]))
            self.slots = [i in rep for i in range(n)]
        if self.slots.pop():
            self.repeats += 1
            return self.rng.choice(self.sent)
        if self.fi >= len(self.fresh):
            raise BenchError("corpus exhausted: raise SERVE['families']")
        q = self.fresh[self.fi]
        self.fi += 1
        self.fresh_sent += 1
        self.sent.append(q)
        return q


def serve_split(rng, desc):
    fams = corpus.stratified(rng, desc["families"])
    hot_fams, fresh_fams = fams[:SERVE["hot_families"]], fams[SERVE["hot_families"]:]
    hot = [desc["queries"][i] for f in hot_fams for i in f["queries"]]
    fresh = []
    for f in fresh_fams:
        qs = [desc["queries"][i] for i in f["queries"]]
        rng.shuffle(qs)
        fresh.extend(qs)
    return hot, fresh


def split_cpus():
    """CPU sets for (client, server): the server gets a CPU of its own, so
    the client never preempts its domains, which must all meet at every
    minor collection.  With a single CPU both share it."""
    cpus = sorted(os.sched_getaffinity(0))
    return (set(cpus[:-1]) or set(cpus)), {cpus[-1]}


def start_server(posl, work, extra=()):
    """Spawn posl-check serve; return (process, connection)."""
    client, server = split_cpus()
    os.sched_setaffinity(0, client)
    store = fresh_dir(os.path.join(work, "store"))
    sock = os.path.join(work, "s.sock")
    if os.path.lexists(sock):
        os.unlink(sock)
    logf = open(os.path.join(work, "serve.log"), "w")
    proc = subprocess.Popen(
        [posl, "serve", "--socket", sock, "--workers", str(SERVE["workers"]), "--store", store]
        + list(extra),
        stdout=logf, stderr=subprocess.STDOUT, env=CHILD_ENV,
        preexec_fn=lambda: os.sched_setaffinity(0, server))
    logf.close()
    deadline = time.monotonic() + 60
    while True:
        try:
            conn = Conn(sock)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise BenchError("server did not come up")
            time.sleep(0.002)
    return proc, conn


def stop_server(proc, conn):
    try:
        call(conn, json.dumps({"op": "shutdown"}), timeout=10)
    except (BenchError, OSError):
        pass
    conn.close()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def serve_setup(posl, work, desc, hot):
    """Set up SERVE['setup_reps'] times: spawn, wait for the socket, answer
    the hot set once.  Return the last server and each set-up's CPU
    seconds (this process's and the server's)."""
    fams = desc["families"]
    times, server = [], None
    for rep in range(SERVE["setup_reps"]):
        c0 = time.process_time()
        proc, conn = start_server(posl, work)
        try:
            for q in hot:
                if not check_reply(call(conn, submit_payload(fams[q["family"]], q)), q):
                    raise BenchError("warm pass: wrong answer for %s %s" % (q["kind"], q["names"]))
            times.append(time.process_time() - c0 + cpu_clock(proc.pid))
        except BaseException:
            stop_server(proc, conn)
            raise
        if rep < SERVE["setup_reps"] - 1:
            stop_server(proc, conn)
        else:
            server = (proc, conn)
    return server, times


def paced(proc, conn, traffic, desc, rate, seconds, ref):
    """Submit ``traffic`` one query at a time, one every 1/``rate`` s (at
    once if the previous answer came back later), for ``seconds``.  Each
    submission's cost is the server's CPU time from just before its send
    to its answer; the reference kernel runs on the server's CPU after
    each answer.  Return per submission the CPU ms, the reference kernel's
    CPU ms and the wall ms of the round trip (a failed one as FAILED), the
    failed count and the server's CPU seconds over the whole loop, idle
    time included."""
    cpu, refs, wall, failed = [], [], [], 0
    start = cpu_clock(proc.pid)
    t0 = time.perf_counter()
    due, stop_at = t0, t0 + seconds
    while due < stop_at:
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        q = traffic.next()
        data = framed(desc, q)
        c, t = cpu_clock(proc.pid), time.perf_counter()
        reply = request(conn, data)
        c1, t1 = cpu_clock(proc.pid), time.perf_counter()
        ok = check_reply(reply, q)
        if not ok:
            failed += 1
            log("FAILED serve %s %s" % (q["kind"], q["names"]))
        cpu.append((c1 - c) * 1000 if ok else FAILED)
        wall.append((t1 - t) * 1000 if ok else FAILED)
        refs.append(ref.sample())
        due += 1.0 / rate
    return cpu, refs, wall, failed, cpu_clock(proc.pid) - start


def run_serve(posl, driver, work, seed, seconds):
    d = fresh_dir(os.path.join(work, "corpus"))
    desc = corpus.generate(d, seed, SERVE["families"])
    rng = random.Random(seed)
    hot, fresh = serve_split(rng, desc)
    with Reference(driver, split_cpus()[1]) as ref:
        (proc, conn), setup = serve_setup(posl, work, desc, hot)
        try:
            traffic = Traffic(rng, hot, fresh)
            cpu, refs, wall, failed, server_s = paced(proc, conn, traffic, desc,
                                                      SERVE["rate_qps"], seconds, ref)
            peak = vm_hwm_mb(proc.pid)
            stats = call(conn, json.dumps({"op": "stats"}))
        finally:
            stop_server(proc, conn)
    norm = [at_ref(c, r) if c != FAILED else FAILED for c, r in zip(cpu, refs)]
    p50, p90 = tail_report("serve-mixed norm_ms (server CPU, send to answer, at reference speed)", norm)
    tail_report("serve-mixed cpu_ms (server user+system, not gated)", cpu)
    tail_report("serve-mixed wall_ms (round trip, not gated)", wall)
    log("serve-mixed: %d submissions at %.0f/s, %d repeats, %d fresh; server CPU %.3f s; "
        "reference kernel median %.4f ms; rejected=%d expired=%d cache_hits=%d store_writes=%d"
        % (len(cpu), SERVE["rate_qps"], traffic.repeats, traffic.fresh_sent, server_s,
           statistics.median(refs), stats.get("rejected_total", -1),
           stats.get("expired_total", -1), stats["engine"]["cache_hits"],
           stats["engine"]["store_writes"]))
    return len(cpu), failed, {
        "setup_s": metric(setup_at_ref(setup, refs), "s"),
        "norm_p50_ms": metric(p50, "ms"),
        "norm_p90_ms": metric(p90, "ms"),
        "norm_throughput": metric(per_norm_s(len(cpu) - failed, norm), "1/s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }


# ---------------------------------------------------------------------------
# watch-edit

def watch_inputs(work, seed):
    """Generate the watch corpus, its manifest, expectations and edit
    schedule; return its directory."""
    d = fresh_dir(os.path.join(work, "corpus"))
    desc = corpus.generate(d, seed, WATCH["families"], variants=True)
    with open(os.path.join(d, "watch.manifest"), "w") as m, \
            open(os.path.join(d, "watch.expect"), "w") as e:
        for fam in desc["families"]:
            m.write("use %s\n" % fam["file"])
            for i in fam["queries"]:
                q = desc["queries"][i]
                m.write("%s %s\n" % (q["kind"], " ".join(q["names"])))
                e.write("%d %s\n" % (fam["index"], " ".join(map(str, q["expect"]))))
    order = [f["index"] for f in corpus.stratified(random.Random(seed), desc["families"])]
    with open(os.path.join(d, "watch.schedule"), "w") as s:
        for r in range(100000):
            kind = "v" if r % WATCH["vocab_every"] == WATCH["vocab_every"] - 1 else "t"
            s.write("%d %s\n" % (order[r % len(order)], kind))
    return d


def pbdrive(driver, args):
    r = subprocess.run([driver] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=CHILD_ENV, timeout=170)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        raise BenchError("driver failed: %s" % " ".join(args[:1]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_watch(driver, work, seed, seconds):
    """Generate the inputs, then set up WATCH['setup_reps'] times
    (Watch.create and the cold round, in a fresh driver); the last set-up
    goes on to the timed rounds.  The driver runs the reference kernel in
    a child on its CPU after every edit round."""
    one_cpu()
    d = watch_inputs(work, seed)
    setup = []
    for rep in range(WATCH["setup_reps"]):
        last = rep == WATCH["setup_reps"] - 1
        rounds = int(seconds * WATCH["rounds_per_s"]) if last else 0
        res = pbdrive(driver, ["watch", "--dir", d, "--rounds", str(rounds)])
        if res["cold_failed"]:
            raise BenchError("cold round verdicts differ from expectations")
        setup.append(res["setup_cpu_ms"] / 1000.0)
    # A failed round (a wrong standing verdict or a diagnostic) reads -1.
    cpu = [x if x >= 0 else FAILED for x in res["cpu_ms"]]
    norm = [at_ref(c, r) if c != FAILED else FAILED for c, r in zip(cpu, res["ref_ms"])]
    if res["failed"]:
        log("FAILED watch-edit: %d of %d rounds" % (res["failed"], res["rounds"]))
    p50, p90 = tail_report("watch-edit norm_ms (Watch.poll CPU after an edit, at reference speed)", norm)
    tail_report("watch-edit cpu_ms (user+system, not gated)", cpu)
    tail_report("watch-edit wall_ms (file written to poll return, not gated)",
                [x if x >= 0 else FAILED for x in res["latency_ms"]])
    log("watch-edit: %d queries over %d files; %d rounds; idle poll %.3f ms; invalidated %d, "
        "reused %d; reference kernel median %.4f ms"
        % (res["queries"], res["files"], res["rounds"], res["idle_poll_ms"],
           res["invalidated"], res["reused"], statistics.median(res["ref_ms"])))
    return res["rounds"], res["failed"], {
        "setup_s": metric(setup_at_ref(setup, res["ref_ms"]), "s"),
        "norm_p50_ms": metric(p50, "ms"),
        "norm_p90_ms": metric(p90, "ms"),
        "norm_throughput": metric(per_norm_s(res["rounds"] - res["failed"], norm), "1/s"),
        "peak_rss_mb": metric(res["vmhwm_kb"] / 1024.0, "MiB"),
    }


# ---------------------------------------------------------------------------

WORKLOADS = ("cli-oneshot", "serve-mixed", "watch-edit")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # SIGTERM unwinds like an error, so the server child is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = None
    try:
        posl, driver = build()
        work = fresh_dir(os.path.join(RUNS, "%s-%d-%d" % (a.workload, a.seed, os.getpid())))
        if a.trace:
            import traced
            attempted, failed, metrics = traced.run(a.workload, posl, driver, work, a.seed, a.seconds)
        elif a.workload == "cli-oneshot":
            attempted, failed, metrics = run_cli(posl, driver, work, a.seed, a.seconds)
        elif a.workload == "serve-mixed":
            attempted, failed, metrics = run_serve(posl, driver, work, a.seed, a.seconds)
        else:
            attempted, failed, metrics = run_watch(driver, work, a.seed, a.seconds)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
    log("%s: attempted %d, failed %d" % (a.workload, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
