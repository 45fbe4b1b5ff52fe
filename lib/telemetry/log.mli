(** Leveled structured logging: JSON-lines events streamed to a sink.

    An event carries a wall-clock timestamp, a monotonic timestamp
    (comparable with span times), a level, a short event name, an
    optional trace id (defaulting to the calling domain's current
    {!Telemetry.context}), and typed key/value fields.  Each accepted
    event is rendered as one JSON line and handed to the installed
    {e sink} the moment it is emitted — the CLI's [--log FILE] points
    it at a file.  Nothing is kept in-process: with no sink installed
    an event is not rendered at all.

    Events below the current level (default [Info]) are discarded
    before any allocation. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

type field = S of string | I of int | F of float | B of bool

val set_level : level -> unit
(** Minimum level recorded (default [Info]). *)

val enabled : level -> bool
(** Whether an event at this level passes the level filter. *)

val set_sink : (string -> unit) option -> unit
(** Install (or remove) the sink.  The sink receives each accepted
    event as one JSON line {e without} the trailing newline, on the
    emitting thread, in emission order per domain. *)

val event :
  ?level:level ->
  ?trace_id:string ->
  ?fields:(string * field) list ->
  string ->
  unit
(** [event name] streams a structured event to the sink, if one is
    installed.  [?trace_id] defaults to the calling domain's current
    span context's trace id (if spans are enabled and a request context
    is installed). *)
