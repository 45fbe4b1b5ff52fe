(** The refinement-session journal: one CRC-framed record per edit
    round, durable across process restarts.

    Reuses the store's log discipline ({!Posl_store.Framing}): a
    one-line header, then length∥CRC∥payload records appended with
    single [O_APPEND] writes, so a crash mid-append leaves a torn tail
    that the next {!open_} detects and truncates, and a damaged
    mid-file record is skipped, never fatal.  Replaying the journal
    after a restart reproduces the full round history — round numbering
    continues where it stopped and the convergence {!signal} is
    computed over the replayed rounds exactly as it was live. *)

type round = {
  round : int;  (** 1-based, monotonically increasing *)
  failing : int;  (** failing verdicts after the round *)
  flips : int;  (** verdicts that changed this round ({!Posl_verdict.Verdict.changed}) *)
  invalidated : int;
  reused : int;
  elapsed_ms : float;
}

val pp_round : Format.formatter -> round -> unit

val json_of_round : round -> Posl_verdict.Verdict.Json.t
(** The round as the JSON object its journal record carries (and
    [posl-check session --json] prints). *)

(** The convergence signal over a window of recent rounds: is the edit
    session driving the failing-verdict count down? *)
type signal =
  | Converging  (** failures strictly decreasing over the window *)
  | Diverging  (** failures strictly increasing over the window *)
  | Steady  (** failures unchanged over the window *)
  | Mixed  (** failures moved both ways within the window *)
  | Unknown  (** fewer than two rounds observed *)

val signal : window:int -> round list -> signal
(** [signal ~window rounds] classifies the last [window] rounds of
    [rounds] (given oldest-first, as {!rounds} returns them). *)

val pp_signal : Format.formatter -> signal -> unit

type t

exception Error of string

val open_ : string -> t
(** [open_ dir] opens (creating [dir] and the log as needed) the
    session journal at [dir/session.log], replays its rounds and
    truncates any torn tail.  Raises {!Error} on an unreadable or
    foreign file. *)

val rounds : t -> round list
(** All recorded rounds, oldest first. *)

val next_round : t -> int
(** The number the next appended round should carry (last + 1; 1 on a
    fresh journal). *)

val append : t -> round -> unit
(** Append one round record (one atomic framed write) and remember it
    in {!rounds}. *)

val close : t -> unit
