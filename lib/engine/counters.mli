(** Engine traffic counters: cells of the process-wide
    {!Posl_telemetry.Metrics} registry, and per-caller delta views over
    them.

    The engine bumps the cells below directly (each is a cumulative
    [posl_engine_*_total] counter, exposed by [posl-check metrics] and
    [--metrics FILE]).  The DFA and exploration counters are bumped
    where that work happens, in [posl.tset] and [posl.bmc].  A {!t}
    remembers the registry values at {!create}, and {!snapshot}
    subtracts them, so a batch (or a server's lifetime) reports exactly
    its own traffic while the registry accumulates process totals.  All
    increments are atomic and may come from any worker domain;
    snapshots are taken after the parallel join, so they are exact for
    non-overlapping batches. *)

module Metrics = Posl_telemetry.Metrics

(** {1 Cells the engine bumps}

    One per {!snapshot} field of the same name ([busy_ns] counts the
    nanoseconds behind [busy_ms]). *)

val jobs : Metrics.counter
val hits : Metrics.counter
val misses : Metrics.counter
val uncacheable : Metrics.counter
val store_hits : Metrics.counter
val store_misses : Metrics.counter
val store_writes : Metrics.counter
val derived_hits : Metrics.counter
val plan_fallbacks : Metrics.counter
val busy_ns : Metrics.counter

(** {1 Delta views} *)

type t

val create : unit -> t
(** Capture the current registry values as the baseline this [t]'s
    {!snapshot} subtracts. *)

type snapshot = {
  jobs : int;  (** jobs answered, cached or computed *)
  hits : int;  (** verdicts served from the in-memory cache *)
  misses : int;  (** verdicts computed and inserted *)
  uncacheable : int;  (** jobs with no content address (opaque tsets) *)
  store_hits : int;  (** verdicts served from the persistent store *)
  store_misses : int;  (** store lookups that had to compute *)
  store_writes : int;  (** records appended to the persistent store *)
  derived_hits : int;
      (** composite verdicts the planner ({!Plan}) derived from
          component verdicts *)
  plan_fallbacks : int;
      (** composite queries the planner declined (answered directly) *)
  busy_ms : float;
      (** summed per-job wall time; divided by (wall time × domains) it
          gives worker utilization *)
  dfa_hits : int;
      (** nodes whose automaton a context's cache already held (one per
          node resolution) *)
  dfa_compiles : int;  (** prs-expressions compiled to DFAs *)
  antichain_pairs : int;
      (** product pairs admitted by antichain inclusion checks *)
  antichain_prunes : int;
      (** candidate pairs subsumed by the antichain (never explored) *)
  interned_states : int;  (** distinct monitor states interned *)
}

val snapshot : t -> snapshot
(** Registry values now, minus the values at {!create} time. *)
