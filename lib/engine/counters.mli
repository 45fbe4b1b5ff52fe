(** Engine traffic counters: cells of the process-wide
    {!Posl_telemetry.Metrics} registry, and a baseline to read them
    against.

    The engine bumps the cells below directly (each is a cumulative
    [posl_engine_*_total] counter, exposed by [posl-check metrics] and
    [--metrics FILE]).  The DFA and exploration counters are bumped
    where that work happens, in [posl.tset] and [posl.bmc].  A {!t}
    remembers the registry values at {!create}, and {!delta} subtracts
    them, so a batch (or a server's lifetime) reads exactly its own
    traffic while the registry accumulates process totals.  All
    increments are atomic and may come from any worker domain; deltas
    are read after the parallel join, so they are exact for
    non-overlapping batches.  [Engine.stats_of] is the one reader that
    turns a {!t} into a record. *)

module Metrics = Posl_telemetry.Metrics

(** {1 Cells}

    One per work count of [Engine.stats], documented there: [hits],
    [misses] and [dfa_hits] are its [cache_hits], [cache_misses] and
    [dfa_cache_hits], and [busy_ns] counts the nanoseconds behind
    [busy_ms]. *)

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
val dfa_hits : Metrics.counter
val dfa_compiles : Metrics.counter
val antichain_pairs : Metrics.counter
val antichain_prunes : Metrics.counter
val interned_states : Metrics.counter

(** {1 Baselines} *)

type t

val create : unit -> t
(** Capture the current value of every cell above as the baseline
    {!delta} subtracts. *)

val delta : t -> Metrics.counter -> int
(** [delta base cell]: the cell's registry value now, minus its value
    at [create] time.  [cell] must be one of the cells above. *)
