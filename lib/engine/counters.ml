(* Engine traffic counters as cells of the process-wide
   [Posl_telemetry.Metrics] registry, plus delta views over them.

   Every increment lands in a global cumulative counter (exposed via
   [posl-check metrics] / [--metrics]); a [Counters.t] merely remembers
   the registry values at [create] time and [snapshot] reports the
   difference.  Batches that do not overlap in time therefore see exact
   per-batch numbers, while the registry keeps exact process totals
   even when they do. *)

module Metrics = Posl_telemetry.Metrics

let jobs =
  Metrics.counter ~help:"Jobs answered by Engine.run_batch (cached or computed)"
    "posl_engine_jobs_total"

let hits =
  Metrics.counter ~help:"Verdicts served from the in-memory cache"
    "posl_engine_cache_hits_total"

let misses =
  Metrics.counter ~help:"Verdicts computed and inserted into the cache"
    "posl_engine_cache_misses_total"

let uncacheable =
  Metrics.counter ~help:"Jobs with no content address (opaque tsets)"
    "posl_engine_uncacheable_total"

let store_hits =
  Metrics.counter ~help:"Verdicts served from the persistent store"
    "posl_engine_store_hits_total"

let store_misses =
  Metrics.counter ~help:"Persistent-store lookups that had to compute"
    "posl_engine_store_misses_total"

let store_writes =
  Metrics.counter ~help:"Records appended to the persistent store"
    "posl_engine_store_writes_total"

let derived_hits =
  Metrics.counter
    ~help:"Composite verdicts derived from component verdicts by the planner"
    "posl_engine_derived_hits_total"

let plan_fallbacks =
  Metrics.counter
    ~help:
      "Composite queries the planner declined (side condition failed or \
       premise not exact), answered by direct checking"
    "posl_engine_plan_fallbacks_total"

let busy_ns =
  Metrics.counter ~help:"Summed per-job wall time, nanoseconds"
    "posl_engine_busy_ns_total"

(* The DFA and interning cells are declared and bumped in posl.tset,
   the antichain ones in posl.bmc. *)
let dfa_hits = Posl_tset.Tset.dfa_hits_c
let dfa_compiles = Posl_tset.Tset.dfa_compiles_c
let antichain_pairs = Posl_bmc.Bmc.antichain_pairs_c
let antichain_prunes = Posl_bmc.Bmc.antichain_prunes_c
let interned_states = Posl_tset.Tset.interned_states_c

type t = (Metrics.counter * int) list

let create () : t =
  List.map
    (fun c -> (c, Metrics.value c))
    [ jobs; hits; misses; uncacheable; store_hits; store_misses;
      store_writes; derived_hits; plan_fallbacks; busy_ns; dfa_hits;
      dfa_compiles; antichain_pairs; antichain_prunes; interned_states ]

type snapshot = {
  jobs : int;
  hits : int;
  misses : int;
  uncacheable : int;
  store_hits : int;
  store_misses : int;
  store_writes : int;
  derived_hits : int;
  plan_fallbacks : int;
  busy_ms : float;
  dfa_hits : int;
  dfa_compiles : int;
  antichain_pairs : int;
  antichain_prunes : int;
  interned_states : int;
}

let snapshot (base : t) : snapshot =
  let d c = Metrics.value c - List.assq c base in
  {
    jobs = d jobs;
    hits = d hits;
    misses = d misses;
    uncacheable = d uncacheable;
    store_hits = d store_hits;
    store_misses = d store_misses;
    store_writes = d store_writes;
    derived_hits = d derived_hits;
    plan_fallbacks = d plan_fallbacks;
    busy_ms = float_of_int (d busy_ns) /. 1e6;
    dfa_hits = d dfa_hits;
    dfa_compiles = d dfa_compiles;
    antichain_pairs = d antichain_pairs;
    antichain_prunes = d antichain_prunes;
    interned_states = d interned_states;
  }
