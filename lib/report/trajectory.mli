(** Perf-trajectory regression report over committed [BENCH_*.json]
    snapshots.

    [posl-check report] compares a {e baseline} directory of campaign
    snapshots (normally the repo root's committed [BENCH_P4..P11.json])
    against a {e live} directory (a fresh bench run, normally
    [_build/bench] or CI's [bench-json]) and renders per-campaign
    threshold verdicts as markdown and JSON.  With [--gate] the
    comparison becomes CI's perf gate: any failed check fails the
    step.

    Each campaign file declares its fields' kinds: a ["kinds"] list
    parallel to ["rows"], each entry mapping a row's fields to a {!kind}
    (see {!document}).  The report reads kinds from the {e baseline}
    file only, so the committed snapshot decides how a field is gated,
    and never guesses from a field's name.  Rows are matched by their
    {!Key} fields, then each field is checked by its kind:

    - {!Claim}: a baseline [true] must stay [true], with no slack;
    - {!Timing}: live <= [slack] x baseline, when the baseline is
      >= 1 ms (smaller timings are noise);
    - {!Rate}: live >= baseline / [slack], when the baseline is > 0;
    - {!Work}: live <= baseline, with no slack;
    - {!Key} and {!Info} fields are never checked.

    A checked field that is missing from the matched live row fails its
    check, shown as missing. *)

module Json = Posl_json.Json

type kind =
  | Key  (** part of the row's identity *)
  | Claim  (** a boolean paper or engineering claim *)
  | Timing  (** lower is better, within a slack *)
  | Rate  (** higher is better, within a slack *)
  | Work  (** a count that repeats exactly for a fixed corpus *)
  | Info  (** rendered by the bench, never checked *)

val string_of_kind : kind -> string
(** ["key"], ["claim"], ["timing"], ["rate"], ["work"] or ["info"]: the
    spelling in a campaign file's ["kinds"] list. *)

val document :
  name:string -> title:string -> (string * kind * Json.t) list list -> Json.t
(** A campaign file: [{"campaign", "title", "rows", "kinds"}].  Each row
    is its (field, kind, value) cells in order; ["rows"] holds the
    fields and values, and ["kinds"], parallel to it, each row's field
    kinds. *)

type check = {
  key : string;  (** row identity, e.g. ["route=speedup"] *)
  field : string;
  kind : kind;  (** [Claim], [Timing], [Rate] or [Work] *)
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
  ok : bool;  (** every campaign passed *)
}

val run :
  ?slack:float ->
  baseline_dir:string ->
  live_dir:string ->
  unit ->
  (t, string) result
(** Compare baseline vs live: every [BENCH_*.json] under
    [baseline_dir], in campaign-number order.  [?slack] defaults to
    2.0.  [Error] when no campaigns are found at all, or when a
    baseline file is unreadable or does not declare a kind for every
    field (the message names the file). *)

val to_markdown : t -> string
val to_json : t -> Json.t
val status_string : status -> string
