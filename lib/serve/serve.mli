(** The resident verification server.

    [posl-check serve] keeps one {!Engine.session} — verdict cache,
    compiled-automata cache, optional persistent store, shared monitor
    contexts — alive for the lifetime of the process and answers
    {!Wire} requests over a Unix-domain or TCP socket.  Connection I/O
    runs on one thread per connection; verification runs on the
    process's worker pool ({!Posl_par.Par.pool}) behind its bounded
    admission queue, so a full queue yields a typed [overloaded]
    response instead of unbounded buffering.  The server stamps each
    job's enqueue time and records [posl_serve_queue_depth] and
    [posl_serve_queue_wait_ms] itself, on admission and at dequeue.  A
    job whose composition outgrows the closure cap answers a typed
    [input] error, as the CLI exits 2 on it; any other exception
    escaping a job answers [internal].

    Graceful shutdown (SIGINT, SIGTERM, or the [shutdown] op) stops
    admitting, completes every job already queued, answers the
    connections waiting on them, flushes and closes the store, unlinks
    the Unix socket, and returns — the CLI then exits 0.

    {b Request tracing.}  Every request gets a trace id — the
    submission's [trace_id] field if the client sent one, a fresh
    server-generated tag otherwise — echoed in submit responses and
    carried by the request's log events.  The server records spans
    only when its caller has turned span recording on
    ({!Posl_telemetry.Telemetry.set_enabled}; the CLI does so for
    [--trace FILE]) and leaves the flag as it found it; untraced, a
    submit result's [span_id] is [null].  Traced, the connection's
    [serve.accept] span parents each request's [serve.handle] span, and
    the handle-span {!Posl_telemetry.Telemetry.context} travels with
    the job across the admission queue, so the worker domain's
    [serve.queue_wait] and engine spans join the same tree: one
    connected per-request span tree in the [--trace] export, findable
    by trace id. *)

module Engine = Posl_engine.Engine

type config = {
  addr : Wire.addr;
  workers : int;  (** worker domains (default {!Posl_par.Par.default_domains}) *)
  max_queue : int;  (** admission-queue bound (default 256) *)
  deadline_ms : int option;
      (** default per-job admission deadline; jobs still queued past it
          answer [deadline_exceeded] instead of running *)
  store_dir : string option;  (** persistent verdict store to open *)
  max_frame : int;  (** incoming frame ceiling (default 4 MiB) *)
  slow_ms : float option;
      (** requests handled slower than this log a [serve.slow]
          exemplar: a warn-level {!Posl_telemetry.Log} event carrying
          the request's trace id (the key into the span tree when the
          server is traced), queue wait, slowest job and verdict
          digest *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers (default [true]; in-process
          test and bench servers pass [false]) *)
}

val config :
  ?workers:int ->
  ?max_queue:int ->
  ?deadline_ms:int ->
  ?store_dir:string ->
  ?max_frame:int ->
  ?slow_ms:float ->
  ?handle_signals:bool ->
  Wire.addr ->
  config

val run : ?on_ready:(Wire.addr -> unit) -> config -> unit
(** Bind, listen, serve until shutdown, drain, clean up, return.
    [on_ready] fires once the socket is accepting, with the bound
    address (a TCP port of 0 is resolved to the kernel-chosen port) —
    tests and the in-process bench server hook their clients there.
    Raises [Unix.Unix_error] if the address cannot be bound and
    [Posl_store.Store.Error] if the store cannot be opened. *)
