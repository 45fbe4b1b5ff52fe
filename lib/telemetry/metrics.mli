(** Process-wide metrics registry with Prometheus-style exposition.

    Three metric kinds, all safe to mutate from any domain without
    locks on the hot path:

    - {e counters}: monotonically increasing integers;
    - {e gauges}: a single float set to the latest value;
    - {e histograms}: log-scale latency histograms (bucket boundaries
      grow by a factor of [sqrt 2] from 1 microsecond to ~12 minutes,
      in milliseconds) supporting p50/p90/p99 estimation within a
      factor of [sqrt 2] of the true value.

    Metrics are {e get-or-create} by name: calling {!counter} twice
    with the same name returns the same counter, so modules can declare
    their metrics at load time without coordination.  Registering the
    same name as two different kinds raises [Invalid_argument].

    [Engine.Counters] is a per-batch delta view over this registry; the
    CLI exposes the cumulative state via [posl-check metrics] and
    [--metrics FILE]. *)

type registry

val create : unit -> registry
(** A fresh, empty registry (used by tests). *)

val default : registry
(** The process-wide registry used when [?registry] is omitted. *)

type counter

val counter : ?registry:registry -> ?help:string -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge

val gauge : ?registry:registry -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram

val histogram : ?registry:registry -> ?help:string -> string -> histogram

val observe : histogram -> float -> unit
(** Record one sample (by convention, milliseconds). *)

val count : histogram -> int
val sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h p] for [p] in [0..100] estimates the [p]-th
    percentile by linear interpolation inside the matching log bucket;
    the estimate is within a factor of [sqrt 2] of the true sample
    percentile.  Returns [0.] on an empty histogram. *)

val expose : ?registry:registry -> unit -> string
(** Prometheus text exposition ([# HELP]/[# TYPE] headers, cumulative
    [_bucket{le="..."}] lines plus [_sum]/[_count] for histograms).
    All-zero leading buckets and the saturated tail are elided. *)
