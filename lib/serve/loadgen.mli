(** Load generator for the verification service.

    [posl-check loadgen] (and the P7 bench campaign) drive a running
    server with [clients] concurrent connections issuing [requests]
    submissions drawn from a [pool]:

    - with probability [repeat] a {e uniformly random} pool entry is
      resubmitted — repeated digests exercise the server's warm caches;
    - otherwise the next entry in pool order is taken (fresh work, up
      to pool exhaustion, after which order wraps).

    Arrival is {!Closed}-loop (each client fires its next request the
    moment the previous response lands — measures saturation
    throughput) or {!Open} at a fixed aggregate rate in requests/sec
    (measures latency at a controlled offered load). *)

type mode = Closed | Open of float  (** aggregate requests/sec *)

type cfg = {
  requests : int;  (** total submissions across all clients *)
  clients : int;  (** concurrent connections *)
  repeat : float;  (** probability in [0..1] of resubmitting a pool entry *)
  mode : mode;
  seed : int;
      (** campaign RNG seed: each client's draw stream is seeded by
          (seed, client index), so a campaign's workload is a pure
          function of its cfg — [--seed N] replays it exactly *)
}

type report = {
  requests : int;
  answered : int;  (** submissions that came back [ok:true] *)
  failed : int;  (** jobs inside answered submissions whose verdict failed *)
  rejected : int;  (** typed [overloaded] responses *)
  expired : int;  (** jobs answered [deadline_exceeded] *)
  errors : int;  (** transport errors and non-overload error responses *)
  cached : int;  (** jobs answered from the server's warm caches *)
  wall_ms : float;
  qps : float;  (** answered submissions per second of wall time *)
  p50_ms : float;
      (** nearest-rank response latency percentiles over the answered
          submissions (each is one of the samples) *)
  p90_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  clients : int;
  repeat : float;
  mode : string;  (** ["closed"] or ["open@RATE"] *)
  slowest : (string * float) list;
      (** the slowest answered requests, slowest first: (trace id, ms).
          Every submission is tagged ["lg<seed>-<k>"], so each entry
          names its exact span tree in the server's [--trace] export. *)
}

val run : Wire.addr -> pool:Wire.submit list -> cfg -> (report, string) result
(** Connect every client (failing fast if the server is not there), run
    the campaign, report.  [Error] only for setup problems (empty pool,
    connection refused); per-request failures are counted in the
    report. *)

val json_of_report : report -> Wire.Json.t
val pp_report : Format.formatter -> report -> unit
