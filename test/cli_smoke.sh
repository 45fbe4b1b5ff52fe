#!/usr/bin/env bash
# Smoke test for the posl-check exit-code contract and the batch
# subcommand.  Run by dune (see test/dune); $1 is the built binary.
#
#   0   verdict holds
#   1   verdict fails (refinement refuted, deadlock found, batch with
#       failing queries, ...)
#   2   input error (unknown spec, unreadable file, manifest syntax)
#   124 cmdliner usage error (unknown subcommand / flag)
set -u

BIN=$1
HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
SPECS=$HERE/../examples/specs
fails=0

expect() {
  local want=$1 label=$2
  shift 2
  "$BIN" "$@" >/dev/null 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $label: expected exit $want, got $got ($*)" >&2
    fails=$((fails + 1))
  else
    echo "ok   $label (exit $got)"
  fi
}

# -- single-query verdicts -------------------------------------------
expect 0 "refine holds" refine "$SPECS/paper.oun" Read2 Read
expect 1 "refine fails" refine "$SPECS/paper.oun" Read Read2
expect 0 "compose ok" compose "$SPECS/paper.oun" Client WriteAcc
expect 0 "proper ok" proper "$SPECS/paper.oun" RW2 WriteAcc Client
expect 0 "no deadlock" deadlock "$SPECS/paper.oun" Client WriteAcc --depth 4
expect 1 "deadlock found" deadlock "$SPECS/paper.oun" Client2 WriteAcc --depth 6
expect 0 "equal holds" equal "$SPECS/paper.oun" Read Read
# composition tokens resolve as in a manifest (a line of fleet.manifest)
expect 0 "refine composite tokens" refine "$SPECS/fleet.oun" "Gauge2||Log" "Gauge||Log"

# -- input errors vs usage errors ------------------------------------
expect 2 "unknown spec" refine "$SPECS/paper.oun" Nope Read
expect 2 "missing file" refine "$SPECS/no_such_file.oun" Read2 Read
expect 124 "unknown subcommand" frobnicate

# The help pages document the exit codes above.
help=$("$BIN" refine --help=plain 2>&1)
if printf '%s\n' "$help" | grep -q '^ *2 *on input errors'; then
  echo "ok   refine --help documents exit 2"
else
  echo "FAIL refine --help: EXIT STATUS does not document exit 2" >&2
  fails=$((fails + 1))
fi

# -- batch ------------------------------------------------------------
expect 0 "batch manifest holds" batch "$SPECS/batch.manifest" --domains 2
expect 2 "batch missing manifest" batch "$SPECS/no_such.manifest"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A failing query in the manifest must turn the whole batch exit 1.
cat >"$tmp/bad.manifest" <<EOF
use $SPECS/paper.oun
depth 4
refine Read2 Read
refine Read Read2
EOF
expect 1 "batch with failing query" batch "$tmp/bad.manifest"

# Unwritable --json path is an input error, not a crash.
expect 2 "batch unwritable json path" batch "$SPECS/batch.manifest" --json /nonexistent-dir/out.json

# Manifest syntax errors are input errors.
cat >"$tmp/syntax.manifest" <<EOF
use $SPECS/paper.oun
refine OnlyOneName
EOF
expect 2 "batch manifest syntax error" batch "$tmp/syntax.manifest"

# JSON summary: file written, machine-readable fields present.
out=$("$BIN" batch "$SPECS/batch.manifest" --domains 2 --json "$tmp/out.json" 2>&1)
if [ $? -ne 0 ]; then
  echo "FAIL batch --json: non-zero exit" >&2
  fails=$((fails + 1))
fi
for field in '"jobs"' '"cache_hits"' '"cache_misses"' '"wall_ms"' '"results"' '"holds"'; do
  if ! grep -q "$field" "$tmp/out.json"; then
    echo "FAIL batch --json: field $field missing from $tmp/out.json" >&2
    fails=$((fails + 1))
  fi
done
# The stdout summary line carries the same stats JSON.
if ! printf '%s' "$out" | grep -q '"cache_hits"'; then
  echo "FAIL batch stdout: no JSON stats line" >&2
  fails=$((fails + 1))
fi
echo "ok   batch --json fields"

# The verdict objects inside the results carry the documented schema.
for field in '"status"' '"confidence"' '"evidence"' '"provenance"' '"universe_digest"'; do
  if ! grep -q "$field" "$tmp/out.json"; then
    echo "FAIL batch --json: verdict field $field missing from $tmp/out.json" >&2
    fails=$((fails + 1))
  fi
done
echo "ok   batch --json verdict schema"

# Without --domains or POSL_DOMAINS a batch runs on one domain,
# whatever the host's core count.
env -u POSL_DOMAINS "$BIN" batch "$SPECS/batch.manifest" \
  --json "$tmp/default.json" >/dev/null 2>&1
if grep -q '"domains":1[,}]' "$tmp/default.json"; then
  echo "ok   batch defaults to one domain"
else
  echo "FAIL batch default: $tmp/default.json does not report \"domains\":1" >&2
  fails=$((fails + 1))
fi

# -- compositional planner (batch --plan, "A||B" manifest tokens) ----
# The fleet manifest's queries are composites: with the default
# --plan auto the engine derives their verdicts from component
# verdicts (Theorems 7 & 16); with --plan off it checks the products
# directly.  Both must hold (exit 0).
expect 0 "fleet manifest (planner on)" batch "$SPECS/fleet.manifest" --domains 2
expect 0 "fleet manifest --plan off" batch "$SPECS/fleet.manifest" --plan off

# The JSON summary carries the planner counters: non-zero derived
# verdicts under auto, zero under off.
"$BIN" batch "$SPECS/fleet.manifest" --json "$tmp/fleet.json" >/dev/null 2>&1
if ! grep -q '"plan_fallbacks"' "$tmp/fleet.json"; then
  echo "FAIL fleet --json: no plan_fallbacks field" >&2
  fails=$((fails + 1))
fi
if grep -q '"derived_hits":0' "$tmp/fleet.json"; then
  echo "FAIL fleet --json: planner derived nothing under --plan auto" >&2
  fails=$((fails + 1))
fi
"$BIN" batch "$SPECS/fleet.manifest" --plan off --json "$tmp/fleet_off.json" >/dev/null 2>&1
if ! grep -q '"derived_hits":0' "$tmp/fleet_off.json"; then
  echo "FAIL fleet --json: --plan off still derived verdicts" >&2
  fails=$((fails + 1))
fi
echo "ok   batch --plan counters (derived under auto, none under off)"

# A composition token whose parts are not composable is an input
# error at elaboration time: Read's alphabet reaches inside RW2||Client.
cat >"$tmp/noncomp.manifest" <<EOF
use $SPECS/paper.oun
depth 4
refine RW2||Client||Read RW||Client||Read
EOF
expect 2 "non-composable composition token" batch "$tmp/noncomp.manifest"

# A composition whose hidden-event closure outgrows the 20,000-composite
# cap has no verdict: an input error naming the query — single,
# batched or watched — never an uncaught exception.
cat >"$tmp/overflow.oun" <<EOF
spec A { objects a; sort Env = all except { a };
         alphabet call a -> Env : P, Q; traces count #P - #Q <= 100000; }
spec B { objects b; sort Env = all except { b };
         alphabet call Env -> b : P; traces all; }
EOF
cat >"$tmp/overflow.manifest" <<EOF
use $tmp/overflow.oun
compose A B
deadlock A B
EOF
expect 2 "closure overflow (deadlock)" deadlock "$tmp/overflow.oun" A B
expect 2 "closure overflow (batch)" batch "$tmp/overflow.manifest"
expect 2 "closure overflow (watch)" watch "$tmp/overflow.manifest" --rounds 1
expect 2 "closure overflow (session)" session "$tmp/overflow.manifest" \
  --session "$tmp/overflow-session" --rounds 1
{ cat "$tmp/overflow.oun"; echo 'assert deadlockfree A || B;'; } \
  >"$tmp/overflow-run.oun"
expect 2 "closure overflow (run)" run "$tmp/overflow-run.oun"
for args in "batch" "watch --rounds 1" \
    "session --session $tmp/overflow-session --rounds 1"; do
  if ! "$BIN" $args "$tmp/overflow.manifest" 2>&1 >/dev/null \
      | grep -q 'deadlock(A ‖ B): .*20000-composite cap'; then
    echo "FAIL closure overflow ($args): error does not name the query and the cap" >&2
    fails=$((fails + 1))
  fi
done

# A forall body naming an undeclared method is an input error of its
# file, found at parse time — never an uncaught exception.  batch and
# single queries exit 2; watch reports it as a diagnostic of the file,
# and a bounded watch whose last round left a query unanswered exits 2.
cat >"$tmp/forall.oun" <<EOF
spec S { objects o; sort Env = all except { o };
         alphabet call Env -> o : A; traces forall c in Env . prs <c,o,B>*; }
spec T { objects o; sort Env = all except { o };
         alphabet call Env -> o : A; traces all; }
EOF
printf 'use %s\nrefine S T\n' "$tmp/forall.oun" >"$tmp/forall.manifest"
expect 2 "undeclared method in a forall body (refine)" \
  refine "$tmp/forall.oun" S T
expect 2 "undeclared method in a forall body (batch)" \
  batch "$tmp/forall.manifest"
expect 2 "undeclared method in a forall body (watch)" \
  watch "$tmp/forall.manifest" --rounds 1
for args in "refine $tmp/forall.oun S T" "batch $tmp/forall.manifest" \
    "watch $tmp/forall.manifest --rounds 1"; do
  if ! "$BIN" $args 2>&1 | grep -q 'method B not declared'; then
    echo "FAIL forall body error ($args): message does not name the method" >&2
    fails=$((fails + 1))
  fi
done

# A query naming an unknown spec is a diagnostic of the round that
# rebuilds it, and a bounded watch or session exits 2, as batch does.
printf 'use %s\nrefine Read Nope\nrefine Read2 Read\n' "$SPECS/paper.oun" \
  >"$tmp/nope.manifest"
expect 2 "unknown spec name (batch)" batch "$tmp/nope.manifest"
expect 2 "unknown spec name (watch)" watch "$tmp/nope.manifest" --rounds 1
expect 2 "unknown spec name (session)" session "$tmp/nope.manifest" \
  --session "$tmp/nope-session" --rounds 1
for args in "watch --rounds 1" "session --session $tmp/nope-session2 --rounds 1"; do
  if ! "$BIN" $args "$tmp/nope.manifest" 2>&1 | grep -q 'no spec named Nope'; then
    echo "FAIL unknown spec name ($args): no diagnostic names Nope" >&2
    fails=$((fails + 1))
  fi
done

# Single-query --json emits the same per-result document shape.
"$BIN" refine "$SPECS/paper.oun" Read Read2 --json >"$tmp/single.json" 2>/dev/null
if [ $? -ne 1 ]; then
  echo "FAIL single --json: expected exit 1" >&2
  fails=$((fails + 1))
fi
for field in '"kind"' '"holds"' '"verdict"' '"evidence"'; do
  if ! grep -q "$field" "$tmp/single.json"; then
    echo "FAIL single --json: field $field missing" >&2
    fails=$((fails + 1))
  fi
done
echo "ok   single-query --json fields"

# A consistency verdict says how and where it was decided, like every
# other query's.
"$BIN" consistent "$SPECS/paper.oun" Write Read2 --json >"$tmp/consistent.json" 2>/dev/null
for field in '"procedure":null' '"universe_digest":null'; do
  if grep -q "$field" "$tmp/consistent.json"; then
    echo "FAIL consistent --json: $field" >&2
    fails=$((fails + 1))
  fi
done
echo "ok   consistent --json procedure and universe digest"

# Universe adequacy: 4 fresh environment objects decide every query of
# batch.manifest as the default 2 do.
"$BIN" batch "$SPECS/batch.manifest" --json "$tmp/extra2.json" >/dev/null 2>&1
"$BIN" batch "$SPECS/batch.manifest" --extra-objects 4 --json "$tmp/extra4.json" >/dev/null 2>&1
if [ "$(grep -o '"status":"[a-z]*"' "$tmp/extra2.json")" != \
     "$(grep -o '"status":"[a-z]*"' "$tmp/extra4.json")" ] \
   || ! grep -q '"status"' "$tmp/extra4.json"; then
  echo "FAIL batch --extra-objects 4: statuses differ from the default's" >&2
  fails=$((fails + 1))
else
  echo "ok   batch --extra-objects 4 decides as 2 do"
fi

# Everything the CLI claims is JSON must actually parse as JSON — and
# every embedded verdict object must round-trip through the typed
# parser.  Validated natively by the tool itself (posl-check json),
# so no external interpreter is needed.
for doc in "$tmp/out.json" "$tmp/single.json"; do
  if ! "$BIN" json "$doc" >/dev/null 2>&1; then
    echo "FAIL posl-check json: $doc is not valid" >&2
    fails=$((fails + 1))
  fi
done
if ! printf '%s' "$out" | tail -n 1 | "$BIN" json - >/dev/null 2>&1; then
  echo "FAIL posl-check json: stdout stats line is not valid JSON" >&2
  fails=$((fails + 1))
fi
echo "ok   JSON documents parse and verdicts round-trip (posl-check json)"
expect 2 "json rejects a non-JSON file" json "$SPECS/paper.oun"

# Cross-check against python3's JSON parser where available; a missing
# python3 must SKIP, not fail (minimal CI images).
if command -v python3 >/dev/null 2>&1; then
  for doc in "$tmp/out.json" "$tmp/single.json"; do
    if ! python3 -m json.tool "$doc" >/dev/null 2>&1; then
      echo "FAIL json.tool: $doc is not valid JSON" >&2
      fails=$((fails + 1))
    fi
  done
  echo "ok   JSON documents parse (python3 -m json.tool)"
else
  echo "SKIP python3 JSON cross-check (python3 not available)"
fi

# -- persistent verdict store ----------------------------------------
# First run populates the store; the second must recompute zero
# cacheable jobs (cache_misses 0, every distinct digest a store hit).
run1=$("$BIN" batch "$SPECS/batch.manifest" --domains 2 --store "$tmp/store" 2>&1 | tail -n 1)
run2=$("$BIN" batch "$SPECS/batch.manifest" --domains 2 --store "$tmp/store" 2>&1 | tail -n 1)
if ! printf '%s' "$run1" | grep -q '"store_writes":2[0-9]'; then
  echo "FAIL store: first run wrote nothing ($run1)" >&2
  fails=$((fails + 1))
fi
if ! printf '%s' "$run2" | grep -q '"cache_misses":0'; then
  echo "FAIL store: second run recomputed jobs ($run2)" >&2
  fails=$((fails + 1))
fi
if ! printf '%s' "$run2" | grep -q '"store_writes":0'; then
  echo "FAIL store: second run wrote records ($run2)" >&2
  fails=$((fails + 1))
fi
if printf '%s' "$run2" | grep -q '"store_hits":0,'; then
  echo "FAIL store: second run had no store hits ($run2)" >&2
  fails=$((fails + 1))
fi
echo "ok   batch --store warm run recomputes nothing"

expect 0 "store stats" store stats "$tmp/store"
expect 0 "store verify (clean)" store verify "$tmp/store"
expect 0 "store gc" store gc "$tmp/store" --manifest "$SPECS/batch.manifest"
expect 0 "store verify after gc" store verify "$tmp/store"
expect 2 "store stats on missing dir" store stats "$tmp/no-such-store"

# Single-query --store shares the same records the batch wrote.
expect 0 "single query --store" refine "$SPECS/paper.oun" Read2 Read --store "$tmp/store"

# A corrupted store must be reported by verify (exit 1), and still
# open: recovery keeps the intact records.
printf 'torn-tail-garbage' >>"$tmp/store/verdicts.log"
expect 1 "store verify reports damage" store verify "$tmp/store"
expect 0 "damaged store still answers batches" batch "$SPECS/batch.manifest" --store "$tmp/store"
expect 0 "store verify after recovery" store verify "$tmp/store"

# -- telemetry: --trace / --metrics / metrics / --slow-ms ------------
# A traced batch must exit 0, write a Chrome trace that our own JSON
# reader accepts, and cover each instrumented subsystem that a cold
# batch exercises.
rm -rf "$tmp/tstore"
expect 0 "batch --trace --metrics" batch "$SPECS/batch.manifest" \
  --store "$tmp/tstore" --trace "$tmp/trace.json" --metrics "$tmp/m.prom"
if ! "$BIN" json "$tmp/trace.json" >/dev/null 2>&1; then
  echo "FAIL trace: $tmp/trace.json is not valid JSON" >&2
  fails=$((fails + 1))
fi
for span in traceEvents engine.batch engine.job tset.dfa-compile \
  tset.closure refine.check compose.check bmc.antichain store.open \
  store.append store.lock-wait; do
  if ! grep -q "$span" "$tmp/trace.json"; then
    echo "FAIL trace: no $span span in $tmp/trace.json" >&2
    fails=$((fails + 1))
  fi
done
echo "ok   batch --trace covers the instrumented subsystems"

# Certification replays only run on refuted verdicts: the Client2
# deadlock is the traced query that must produce a verdict.certify
# span (and still exit 1).
"$BIN" deadlock "$SPECS/paper.oun" Client2 WriteAcc --depth 6 \
  --trace "$tmp/refuted.json" >/dev/null 2>&1
if [ $? -ne 1 ]; then
  echo "FAIL traced refuted query: expected exit 1" >&2
  fails=$((fails + 1))
fi
for span in verdict.certify; do
  if ! grep -q "$span" "$tmp/refuted.json"; then
    echo "FAIL trace: no $span span in traced deadlock query" >&2
    fails=$((fails + 1))
  fi
done
echo "ok   traced refuted query records verdict.certify"

# store gc is the only gc call site; trace it directly.
expect 0 "store gc --trace" store gc "$tmp/tstore" \
  --manifest "$SPECS/batch.manifest" --trace "$tmp/gc.json"
if ! grep -q "store.gc" "$tmp/gc.json"; then
  echo "FAIL trace: no store.gc span in traced gc" >&2
  fails=$((fails + 1))
fi
echo "ok   store gc --trace records store.gc"

# Metrics exposition: the subcommand prints Prometheus text, the
# --metrics file matches the same format.
expect 0 "metrics subcommand" metrics "$SPECS/batch.manifest"
out=$("$BIN" metrics "$SPECS/batch.manifest" 2>/dev/null)
for needle in "# TYPE posl_engine_jobs_total counter" \
  "# TYPE posl_engine_job_ms histogram" "posl_engine_jobs_total"; do
  if ! printf '%s' "$out" | grep -q "$needle"; then
    echo "FAIL metrics: missing $needle in exposition" >&2
    fails=$((fails + 1))
  fi
done
if ! grep -q "posl_engine_jobs_total" "$tmp/m.prom"; then
  echo "FAIL --metrics: no engine counters in $tmp/m.prom" >&2
  fails=$((fails + 1))
fi
echo "ok   metrics exposition (subcommand and --metrics file)"
expect 2 "metrics missing manifest" metrics "$SPECS/no_such.manifest"

# Unwritable --trace path is an input error, not a crash.
expect 2 "unwritable trace path" batch "$SPECS/batch.manifest" \
  --trace /nonexistent-dir/t.json

# --slow-ms prints a slow-query section with span ids.
slow=$("$BIN" batch "$SPECS/batch.manifest" --store "$tmp/tstore2" \
  --trace "$tmp/slow.json" --slow-ms 0 2>&1)
if ! printf '%s' "$slow" | grep -q "span"; then
  echo "FAIL --slow-ms 0: no slow-query lines with span ids" >&2
  fails=$((fails + 1))
fi
echo "ok   batch --slow-ms prints span ids"

# -- serve / loadgen: the resident verification service ---------------
# Start an untraced server on a Unix socket, drive it with the load
# generator, then SIGTERM it: the drain must exit 0 and unlink the
# socket, and every request's slow exemplar must carry the trace id
# loadgen sent, which comes from the request, not from a span.
sock=$tmp/posl.sock
"$BIN" serve --socket "$sock" --workers 2 --max-queue 64 \
  --store "$tmp/servestore" --log "$tmp/serve-events.jsonl" --slow-ms 0 \
  >"$tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
if [ ! -S "$sock" ]; then
  echo "FAIL serve: socket never appeared ($(cat "$tmp/serve.log"))" >&2
  fails=$((fails + 1))
else
  expect 0 "loadgen against live server" loadgen --socket "$sock" \
    --manifest "$SPECS/batch.manifest" -n 20 --clients 2 --repeat 0.5 \
    --json "$tmp/loadgen.json" --server-metrics "$tmp/serve.prom"
  # loadgen's report is machine-readable JSON…
  if ! "$BIN" json "$tmp/loadgen.json" >/dev/null 2>&1; then
    echo "FAIL loadgen: $tmp/loadgen.json is not valid JSON" >&2
    fails=$((fails + 1))
  fi
  for field in '"answered"' '"qps"' '"p99_ms"' '"cached"'; do
    if ! grep -q "$field" "$tmp/loadgen.json"; then
      echo "FAIL loadgen: field $field missing from report" >&2
      fails=$((fails + 1))
    fi
  done
  # …and the server's metrics op exposes the serve counters in the
  # same Prometheus text format the metrics subcommand prints.
  for needle in "# TYPE posl_serve_requests_total counter" \
    "posl_serve_requests_total" "posl_serve_queue_depth"; do
    if ! grep -q "$needle" "$tmp/serve.prom"; then
      echo "FAIL serve metrics: missing $needle" >&2
      fails=$((fails + 1))
    fi
  done
  echo "ok   loadgen report and serve metrics exposition"
fi

kill -TERM "$serve_pid" 2>/dev/null
wait "$serve_pid"
serve_exit=$?
if [ "$serve_exit" -ne 0 ]; then
  echo "FAIL serve: SIGTERM drain exited $serve_exit ($(cat "$tmp/serve.log"))" >&2
  fails=$((fails + 1))
elif [ -S "$sock" ]; then
  echo "FAIL serve: socket still present after drain" >&2
  fails=$((fails + 1))
else
  echo "ok   serve SIGTERM drains, exits 0, unlinks socket"
fi
if grep '"event":"serve.slow"' "$tmp/serve-events.jsonl" 2>/dev/null \
  | grep -q '"trace_id":"lg'; then
  echo "ok   untraced serve logs slow exemplars with loadgen's trace ids"
else
  echo "FAIL serve --log: no serve.slow exemplar with a loadgen trace id" >&2
  fails=$((fails + 1))
fi

# -- watch / session: incremental re-verification ---------------------
# A bounded watcher over a scratch fleet copy: the cold round verifies
# all ten queries; editing one component spec (Gauge2's traces)
# re-runs exactly its six dependent queries and reuses the other four.
# The edit is a same-size rewrite in place with its mtime put back
# (`touch -r`), so only the file's ctime shows it: the watcher, which
# by then has stat stamps for its settled files, must still read it.
# Every report line must be valid JSON by the tool's own parser.
mkdir -p "$tmp/fleet"
cp "$SPECS/fleet.oun" "$SPECS/fleet.manifest" "$tmp/fleet/"
# (under `timeout` so a missed edit can never hang the suite)
timeout 60 "$BIN" watch "$tmp/fleet/fleet.manifest" --json --poll-ms 100 \
  --rounds 2 >"$tmp/watch.log" 2>&1 &
watch_pid=$!
sleep 1
touch -r "$tmp/fleet/fleet.oun" "$tmp/fleet/mtime.ref"
awk '{
  gsub(/<x,g,OPEN> <x,g,SAMPLE\(_\)>\* <x,g,CLOSE>/, "<x,g,OPEN> <x,g,SAMPLE(_)>  <x,g,CLOSE>");
  print
}' "$tmp/fleet/fleet.oun" >"$tmp/fleet/fleet.oun.new"
if cmp -s "$tmp/fleet/fleet.oun" "$tmp/fleet/fleet.oun.new" \
  || [ "$(wc -c <"$tmp/fleet/fleet.oun")" -ne "$(wc -c <"$tmp/fleet/fleet.oun.new")" ]; then
  echo "FAIL watch: the Gauge2 edit is not a same-size change" >&2
  fails=$((fails + 1))
fi
# Overwrite in place without truncating: `cat new >file` leaves the file
# empty until cat writes, and a poll landing in that window ran round 2
# on an empty file (3–7 of 25 runs on a loaded 2-vCPU VM).
dd if="$tmp/fleet/fleet.oun.new" of="$tmp/fleet/fleet.oun" bs=1M \
  conv=notrunc status=none
touch -r "$tmp/fleet/mtime.ref" "$tmp/fleet/fleet.oun"
wait "$watch_pid"
watch_exit=$?
if [ "$watch_exit" -ne 0 ]; then
  echo "FAIL watch: expected exit 0 after 2 rounds, got $watch_exit ($(cat "$tmp/watch.log"))" >&2
  fails=$((fails + 1))
fi
if ! head -n 1 "$tmp/watch.log" | grep -q '"queries_invalidated":10'; then
  echo "FAIL watch: cold round did not verify all ten queries" >&2
  fails=$((fails + 1))
fi
if ! sed -n 2p "$tmp/watch.log" | grep -q '"queries_invalidated":6'; then
  echo "FAIL watch: Gauge2 edit did not invalidate exactly its six queries" >&2
  fails=$((fails + 1))
fi
if ! sed -n 2p "$tmp/watch.log" | grep -q '"queries_reused":4'; then
  echo "FAIL watch: Gauge2 edit did not reuse the other four verdicts" >&2
  fails=$((fails + 1))
fi
while IFS= read -r line; do
  if ! printf '%s' "$line" | "$BIN" json - >/dev/null 2>&1; then
    echo "FAIL watch: report line is not valid JSON: $line" >&2
    fails=$((fails + 1))
  fi
done <"$tmp/watch.log"
echo "ok   watch --json (cold 10/0, one same-size edit, mtime put back -> 6 invalidated / 4 reused)"

# A watcher with no round bound must drain cleanly on SIGTERM.
"$BIN" watch "$tmp/fleet/fleet.manifest" --poll-ms 100 \
  >"$tmp/watch2.log" 2>&1 &
watch_pid=$!
sleep 1
kill -TERM "$watch_pid" 2>/dev/null
wait "$watch_pid"
watch_exit=$?
if [ "$watch_exit" -ne 0 ]; then
  echo "FAIL watch: SIGTERM exit $watch_exit ($(cat "$tmp/watch2.log"))" >&2
  fails=$((fails + 1))
else
  echo "ok   watch SIGTERM exits 0"
fi

# Refinement sessions journal their rounds: a second bounded run over
# the same --session dir replays the first run's round before its own.
"$BIN" session "$tmp/fleet/fleet.manifest" --session "$tmp/sess" \
  --rounds 1 --poll-ms 100 >"$tmp/sess1.log" 2>&1
if ! grep -q "0 rounds replayed" "$tmp/sess1.log"; then
  echo "FAIL session: fresh session claimed replayed rounds" >&2
  fails=$((fails + 1))
fi
"$BIN" session "$tmp/fleet/fleet.manifest" --session "$tmp/sess" \
  --rounds 1 --poll-ms 100 >"$tmp/sess2.log" 2>&1
if ! grep -q "1 round replayed" "$tmp/sess2.log"; then
  echo "FAIL session: restart did not replay the journal ($(cat "$tmp/sess2.log"))" >&2
  fails=$((fails + 1))
fi
if ! grep -q "signal:" "$tmp/sess2.log"; then
  echo "FAIL session: no convergence signal printed" >&2
  fails=$((fails + 1))
fi
echo "ok   session journal survives restart (1 round replayed)"

# The perf-trajectory report: a live dir identical to the baseline
# passes the gate (exit 0); corrupting a boolean claim fails it
# (exit 1); an empty baseline dir, or a baseline that declares no
# field kinds, is an input error (exit 2).
mkdir -p "$tmp/base" "$tmp/live"
cat >"$tmp/base/BENCH_P8.json" <<'EOF'
{"campaign":"P8","title":"smoke","rows":[{"route":"direct","total_ms":50.0,"verdicts_agree":true}],
 "kinds":[{"route":"key","total_ms":"timing","verdicts_agree":"claim"}]}
EOF
cp "$tmp/base/BENCH_P8.json" "$tmp/live/BENCH_P8.json"
"$BIN" report --baseline "$tmp/base" --live "$tmp/live" --gate \
  --json "$tmp/report.json" --md "$tmp/report.md" >"$tmp/report.log" 2>&1
report_exit=$?
if [ "$report_exit" -ne 0 ]; then
  echo "FAIL report: identical live dir gated non-zero ($report_exit)" >&2
  fails=$((fails + 1))
fi
if ! grep -q "perf trajectory" "$tmp/report.md"; then
  echo "FAIL report: markdown file missing or empty" >&2
  fails=$((fails + 1))
fi
if ! "$BIN" json "$tmp/report.json" >/dev/null 2>&1; then
  echo "FAIL report: --json output is not valid JSON" >&2
  fails=$((fails + 1))
fi
sed 's/"verdicts_agree":true/"verdicts_agree":false/' \
  "$tmp/base/BENCH_P8.json" >"$tmp/live/BENCH_P8.json"
"$BIN" report --baseline "$tmp/base" --live "$tmp/live" --gate \
  >"$tmp/report2.log" 2>&1
report_exit=$?
if [ "$report_exit" -ne 1 ]; then
  echo "FAIL report: broken claim should gate exit 1, got $report_exit" >&2
  fails=$((fails + 1))
fi
mkdir -p "$tmp/nobase"
"$BIN" report --baseline "$tmp/nobase" --live "$tmp/live" >/dev/null 2>&1
report_exit=$?
if [ "$report_exit" -ne 2 ]; then
  echo "FAIL report: empty baseline should be input error 2, got $report_exit" >&2
  fails=$((fails + 1))
fi
mkdir -p "$tmp/kindless"
echo '{"campaign":"P8","title":"smoke","rows":[{"route":"direct"}]}' \
  >"$tmp/kindless/BENCH_P8.json"
"$BIN" report --baseline "$tmp/kindless" --live "$tmp/live" >"$tmp/report3.log" 2>&1
report_exit=$?
if [ "$report_exit" -ne 2 ] || ! grep -q 'kindless/BENCH_P8.json' "$tmp/report3.log"; then
  echo "FAIL report: a baseline without kinds should be input error 2 naming the file, got $report_exit" >&2
  fails=$((fails + 1))
fi
echo "ok   report gate (pass 0 / regression 1 / no campaigns or kinds 2)"

# --log streams structured events as JSON lines the tool's own parser
# accepts, and the batch slow-query exemplars land there.
"$BIN" batch "$SPECS/batch.manifest" --slow-ms 0 --log "$tmp/batch.jsonl" \
  >/dev/null 2>&1
if [ ! -s "$tmp/batch.jsonl" ]; then
  echo "FAIL log: --log wrote no events" >&2
  fails=$((fails + 1))
fi
if ! grep -q '"event":"batch.slow"' "$tmp/batch.jsonl"; then
  echo "FAIL log: slow-query exemplar not logged" >&2
  fails=$((fails + 1))
fi
while IFS= read -r line; do
  if ! printf '%s' "$line" | "$BIN" json - >/dev/null 2>&1; then
    echo "FAIL log: event line is not valid JSON: $line" >&2
    fails=$((fails + 1))
  fi
done <"$tmp/batch.jsonl"
echo "ok   batch --log streams JSON-line events"

# The metrics subcommand exposes the runtime/GC section.
"$BIN" metrics "$SPECS/batch.manifest" >"$tmp/metrics.out" 2>&1
if ! grep -q "posl_gc_pause_ms" "$tmp/metrics.out"; then
  echo "FAIL metrics: gc pause histogram absent" >&2
  fails=$((fails + 1))
fi
if ! grep -q "posl_gc_heap_words" "$tmp/metrics.out"; then
  echo "FAIL metrics: heap gauge absent" >&2
  fails=$((fails + 1))
fi
echo "ok   metrics exposes runtime/GC section"

if [ "$fails" -ne 0 ]; then
  echo "$fails smoke check(s) failed" >&2
  exit 1
fi
echo "all smoke checks passed"
