(** Incremental re-verification: a resident watcher over one manifest.

    The watcher keeps a warm {!Posl_engine.Engine.session} and, per
    round, re-runs {e only} the queries an edit can have moved:

    - {e polling} is portable content hashing, gated by a stat
      {e stamp}: each watched file (the manifest and every [use]
      target) keeps the device, inode, size, mtime and ctime of the
      stat taken before its last read, and a poll reads and MD5s only
      a file whose stamp moved — so no inotify binding is needed, and
      an idle poll opens no file.  The content hash still decides what
      changed; the stamp only spares the read.  A stamp is kept only
      once both its times are older than the wall clock at that stat
      by more than a settling window (a constant: 50 ms where the
      times carry sub-second digits, 3 s where both are whole seconds,
      as on FAT, HFS+ or ext3); until then every poll reads the file
      again.  So an edit is never missed however it is made — within
      one timestamp tick of the last read, with its mtime put back
      ([touch -r], [utimes]: the ctime still moves) or by a rename
      over the file (the inode moves) — provided the file system's
      clock follows the watcher's to within the window.  A file server
      whose clock lags the watcher's by more is the exception (a clock
      that runs ahead only costs reads);
    - a changed spec file is {e re-parsed alone}, once; its universe
      digest and the {!Posl_engine.Digest.spec_key} of each spec name
      (the first spec of a name, as name resolution picks) are taken
      then, and the file's {e generation} moves only when one of them
      did — so a comment-only edit runs no round;
    - one rule decides what a round re-runs: a query re-runs iff its
      {e dependency token} — its file's universe digest plus the
      [spec_key] of every composition part it names
      ({!Posl_engine.Manifest.composition_parts}) — moved, or it has no
      standing verdict.  Together with the query's kind and names the
      token fixes its {!Posl_engine.Digest.query_base}, so every other
      query's verdict is {e reused} without touching the engine.  A
      manifest edit that adds or reorders queries runs a round too;
    - parse failures in a half-saved file are typed diagnostics
      ({!Posl_engine.Manifest.input_error}) in the round report; the
      file's last good elaboration — and all verdicts over it — stand,
      and the loop never crashes;
    - the round report lists {e flips} only: verdicts whose status,
      confidence or evidence changed ({!Posl_verdict.Verdict.changed}),
      each with its full typed verdict, plus the
      [queries_invalidated] / [queries_reused] / [flips] counters.

    Memory follows the live parses: each spec value keeps its own
    content key ({!Posl_core.Spec.keyed}), a context holds the
    monitors it resolves weakly, keyed by the trace set's
    construction identity, and a round lets go of the monitors it
    resolved once its verdicts have landed ({!Posl_tset.Tset.drop_nodes}),
    since a file's parse is only checked in the round that re-parsed
    it.  A superseded parse is garbage once every slot built on it
    has been rebuilt, whatever lookups the rounds after it make.

    Each poll's stamp check, reads and re-parse are instrumented with
    a [watch.refresh] telemetry span, whose [hashed] attribute counts
    the files the poll read; rounds with a [watch.round] span and
    [posl_watch_*] counters. *)

module Manifest = Posl_engine.Manifest
module Engine = Posl_engine.Engine
module Verdict = Posl_verdict.Verdict

type flip = {
  label : string;  (** the batch-table label of the flipped query *)
  previous : Verdict.t;
  verdict : Verdict.t;
}

type report = {
  round : int;  (** 1-based ordinal of rounds this watcher has run *)
  invalidated : int;
      (** queries re-submitted to the engine this round *)
  reused : int;
      (** queries answered by the standing verdict, engine untouched *)
  errored : int;
      (** queries with no runnable request this round (their spec file
          never loaded, or a name no longer resolves) *)
  flips : flip list;
  diagnostics : Manifest.input_error list;
      (** input failures that {e surfaced} this round: a broken file
          once, when it breaks, not every round after; a query that
          does not elaborate over its file's good parse (an unknown
          name, say) each time its slot is rebuilt *)
  failing : int;  (** failing verdicts across all queries after the round *)
  total : int;  (** queries in the manifest *)
  elapsed_ms : float;
  stats : Engine.stats option;  (** engine stats, when anything ran *)
}

val json_of_report : report -> Verdict.Json.t
(** One self-contained JSON object per round — the [--json] line
    format.  Counters appear as ["queries_invalidated"],
    ["queries_reused"], ["flips"] (array of [{label, previous,
    verdict}]), diagnostics as [{file, offset, message}]. *)

val pp_report : Format.formatter -> report -> unit
(** The human flip report: one line per flip with the verdict
    rendering, one per diagnostic, and the round counter summary
    (which names the errored count when there is one). *)

type t

val create :
  ?default_depth:int ->
  ?extra_objects:int ->
  ?plan:Posl_engine.Plan.mode ->
  ?domains:int ->
  ?session:Engine.session ->
  string ->
  t
(** [create manifest] — a watcher with no rounds run yet.  [session]
    (default: a fresh one) carries the caches and optional store every
    round lands on; [default_depth] (6) and [extra_objects] (2) follow
    the CLI defaults. *)

val poll : t -> report option
(** Look once.  [None] when the manifest's queries and every file's
    generation stand and no diagnostic surfaced; otherwise run one
    round — re-elaborate what moved, re-verify what that invalidated —
    and report it.  The first call always runs the cold round
    (everything invalidated).  Never raises on input failures: broken
    files surface as [diagnostics].  A query whose closure outgrows its
    context's cap raises {!Posl_engine.Job.Overflow}; the queries that
    raise left without a verdict re-run in the next round. *)

val verdicts : t -> (string * Verdict.t) list
(** The standing verdict of every query that has one, in manifest
    order, labelled as the batch table labels them. *)

val run :
  ?poll_ms:int ->
  ?max_rounds:int ->
  ?stop:(unit -> bool) ->
  on_round:(report -> unit) ->
  t ->
  int
(** The watch loop: {!poll} every [poll_ms] (default 200) milliseconds,
    calling [on_round] on each round, until [stop ()] (checked at least
    every 50 ms, so signal flags are honoured promptly) or [max_rounds]
    rounds have run.  Returns the number of rounds run. *)
