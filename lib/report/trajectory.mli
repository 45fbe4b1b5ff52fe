(** Perf-trajectory regression report over committed [BENCH_*.json]
    snapshots.

    [posl-check report] compares a {e baseline} directory of campaign
    snapshots (normally the repo root's committed [BENCH_P4..P11.json])
    against a {e live} directory (a fresh bench run, normally
    [_build/bench] or CI's [bench-json]) and renders per-campaign
    threshold verdicts as markdown and JSON.  With [--gate] the
    comparison becomes CI's perf gate: any failed check fails the
    step.

    Checks per matched row (identity fields: route / span / pass /
    cache / domains / clients / repeat / mode):

    - {e claims} — boolean fields the baseline records as [true]
      ([verdicts_agree], [derived_agree], [fewer_product_explorations],
      [ge10x], ...) must still be [true]: hard gates, no slack;
    - {e timings} — [*_ms] fields with baseline >= 1 ms must stay
      within [slack] x baseline;
    - {e rates} — [qps] and [speedup]/[*_over_*] fields must stay
      above baseline / [slack];
    - counters and sub-millisecond timings are not gated.

    A field that would be gated (a [true] claim, a timing with a
    baseline >= 1 ms, a rate with a baseline > 0) and is missing from
    the matched live row fails its check, shown as missing. *)

module Json = Posl_json.Json

type kind =
  | Lower_ms  (** timing: live must be <= slack x baseline *)
  | Higher  (** rate: live must be >= baseline / slack *)
  | Claim  (** boolean: baseline true must stay true *)

type check = {
  key : string;  (** row identity, e.g. ["route=speedup"] *)
  field : string;
  kind : kind;
  base : float;  (** claims: [1.] = true *)
  live : float option;
      (** claims: [1.] = true; [None] when the field is missing from
          the live row (the check fails) *)
  ok : bool;
}

type status =
  | Pass
  | Regressed  (** a check failed or a baseline row has no live row *)
  | Missing_live  (** live campaign file absent or unreadable *)

type campaign = {
  name : string;
  title : string;
  status : status;
  checks : check list;
  unmatched_baseline : string list;
  unmatched_live : string list;
}

type t = {
  baseline_dir : string;
  live_dir : string;
  slack : float;
  campaigns : campaign list;
  runtime : (string * float) list;
      (** unlabelled samples of the live metrics snapshot, if given *)
  ok : bool;  (** every campaign passed *)
}

val run :
  ?slack:float ->
  ?metrics_file:string ->
  ?campaigns:string list ->
  baseline_dir:string ->
  live_dir:string ->
  unit ->
  (t, string) result
(** Compare baseline vs live.  [?campaigns] names the campaigns to
    compare (["P8"; ...]); by default every [BENCH_*.json] under
    [baseline_dir] is used, in campaign-number order.  [?slack]
    defaults to 2.0.  [?metrics_file] is a Prometheus text exposition
    whose unlabelled samples are appended as a runtime section.
    [Error] only when no campaigns are found at all. *)

val to_markdown : t -> string
val to_json : t -> Json.t
val status_string : status -> string
