(** Structured spans over per-domain lock-free ring buffers.

    A {e span} is a named interval of work measured with the monotonic
    clock, optionally annotated with string attributes and nested under
    the span that was open on the same domain when it started.  Spans
    are recorded into per-domain ring buffers (single writer, no locks
    on the hot path) that grow on demand and drop the {e oldest}
    completed spans once full, so tracing can stay on for arbitrarily
    long runs with bounded memory.

    Telemetry is globally {e disabled} by default and the disabled fast
    path of {!with_span} is one atomic load followed by the call to
    [f] — cheap enough to leave instrumentation in hot code
    unconditionally.

    {!spans}, {!trace_json} and {!reset} read every domain's ring and
    must only be called when no worker domain is recording (i.e. after
    the parallel section has joined — [Par.map_dyn] and
    [Engine.run_batch] both join before returning). *)

type span = {
  id : int;  (** process-unique, strictly positive *)
  parent : int option;
      (** id of the span this span nests under — the span open on the
          same domain at start, or the parent of the installed
          {!context} when the domain's stack was empty *)
  trace_id : string option;
      (** request-tree tag inherited from the parent span or installed
          {!context}; spans sharing a [trace_id] belong to one request *)
  name : string;
  tid : int;  (** ring (domain) id, stable for the ring's lifetime *)
  start_ns : int;  (** monotonic clock, nanoseconds *)
  dur_ns : int;
  attrs : (string * string) list;
}

type context = { trace_id : string option; parent : int option }
(** A portable span context: enough to re-root a span tree on another
    domain.  Capture with {!current_context} on the domain that owns
    the parent span, hand the value across the queue/domain boundary,
    and install it with {!with_context} on the worker — spans the
    worker opens while its stack is empty then nest under [parent] and
    inherit [trace_id], stitching one request tree across domains. *)

val root_context : context
(** [{ trace_id = None; parent = None }]. *)

val now_ns : unit -> int
(** Monotonic clock ([clock_gettime(CLOCK_MONOTONIC)]), nanoseconds.
    Never jumps backwards; only differences are meaningful. *)

val set_enabled : bool -> unit
(** Globally enable or disable span recording.  Flip before the traced
    region starts; spans opened while disabled are never recorded. *)

val enabled : unit -> bool

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~attrs name f] runs [f ()] inside a span called [name].
    The span closes when [f] returns {e or raises} (the exception is
    re-raised).  When telemetry is disabled this is just [f ()]. *)

val set_attrs : (string * string) list -> unit
(** Append attributes to the innermost open span of the calling domain,
    for values only known mid-span (node counts, cache outcomes).
    No-op when disabled or when no span is open. *)

val current_span_id : unit -> int option
(** Id of the innermost open span of the calling domain, if any. *)

val current_context : unit -> context
(** The context a child span would inherit right now: the innermost
    open span of the calling domain if any, else the innermost
    installed context, else {!root_context}. *)

val with_context : context -> (unit -> 'a) -> 'a
(** [with_context c f] installs [c] for the duration of [f] on the
    calling domain.  Spans opened by [f] while the domain's span stack
    is empty take [c.parent] as parent and [c.trace_id] as trace id;
    nested spans inherit both as usual.  Contexts nest (innermost
    wins).  When telemetry is disabled this is just [f ()]. *)

val emit :
  ?context:context ->
  ?attrs:(string * string) list ->
  string ->
  start_ns:int ->
  dur_ns:int ->
  unit
(** [emit name ~start_ns ~dur_ns] records an already-measured interval
    as a completed span on the calling domain's ring — for phases whose
    endpoints straddle a queue or domain handoff (e.g. queue wait,
    measured as dequeue time minus enqueue time).  Parent and trace id
    come from [?context] when given, else from the calling domain as in
    {!with_span}.  No-op when disabled. *)

val spans : unit -> span list
(** All completed spans surviving in every ring, sorted by start time.
    Open (unfinished) spans are not included. *)

val dropped : unit -> int
(** Number of completed spans overwritten by ring wrap-around. *)

val reset : unit -> unit
(** Discard all recorded spans (rings stay registered). *)

val trace_json : unit -> string
(** The recorded spans as Chrome [trace_event] JSON (complete ["X"]
    events, timestamps in microseconds rebased to the earliest span),
    directly loadable in Perfetto or [chrome://tracing].  Span id,
    parent id and attributes are carried in each event's ["args"].
    The output parses with [Posl_json.Json.of_string]. *)

val write_trace : string -> unit
(** [write_trace path] writes {!trace_json} to [path]. *)
