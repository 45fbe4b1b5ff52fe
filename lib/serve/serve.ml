module Json = Posl_verdict.Verdict.Json
module Verdict = Posl_verdict.Verdict
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Manifest = Posl_engine.Manifest
module Counters = Posl_engine.Counters
module Cache = Posl_engine.Cache
module Spec = Posl_core.Spec
module Store = Posl_store.Store
module Par = Posl_par.Par
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Log = Posl_telemetry.Log
module Runtime = Posl_telemetry.Runtime

let connections_total =
  Metrics.counter ~help:"Connections accepted by the verification server"
    "posl_serve_connections_total"

let requests_total =
  Metrics.counter ~help:"Well-framed requests handled by the server"
    "posl_serve_requests_total"

let rejected_total =
  Metrics.counter ~help:"Submissions refused because the admission queue was full"
    "posl_serve_rejected_total"

let expired_total =
  Metrics.counter ~help:"Jobs dropped because their deadline passed while queued"
    "posl_serve_expired_total"

type config = {
  addr : Wire.addr;
  workers : int;
  max_queue : int;
  deadline_ms : int option;
  store_dir : string option;
  max_frame : int;
  slow_ms : float option;
  handle_signals : bool;
}

let config ?workers ?(max_queue = 256) ?deadline_ms ?store_dir
    ?(max_frame = Frame.default_max_bytes) ?slow_ms ?(handle_signals = true)
    addr =
  let workers =
    match workers with Some w -> max 1 w | None -> Par.default_domains ()
  in
  { addr; workers; max_queue; deadline_ms; store_dir; max_frame; slow_ms;
    handle_signals }

(* Server-generated request-tree tags for submissions that did not
   bring their own. *)
let next_trace = Atomic.make 1
let fresh_trace_id () = Printf.sprintf "r%06d" (Atomic.fetch_and_add next_trace 1)

(* One queued verification job: the request plus a one-shot mailbox the
   submitting connection thread blocks on. *)
type reply = Done of Engine.result | Expired | Failed of string

type job = {
  req : Engine.request;
  deadline_ns : int option;
  trace_id : string;  (* the request's tag, carried by its log events *)
  ctx : Telemetry.context;
      (* the submitting request's handle-span context; re-rooted on the
         worker domain so engine spans join the request tree *)
  cell_lock : Mutex.t;
  cell_cond : Condition.t;
  mutable reply : reply option;
  mutable wait_ns : int;  (* admission-queue wait, set at dequeue *)
}

let deliver job reply =
  Mutex.lock job.cell_lock;
  job.reply <- Some reply;
  Condition.signal job.cell_cond;
  Mutex.unlock job.cell_lock

let await job =
  Mutex.lock job.cell_lock;
  while job.reply = None do
    Condition.wait job.cell_cond job.cell_lock
  done;
  let r = Option.get job.reply in
  Mutex.unlock job.cell_lock;
  r

type server = {
  cfg : config;
  session : Engine.session;
  counters : Counters.t;  (* server-lifetime delta over the registry *)
  mutable sched : job Sched.t option;  (* set once, before accepting *)
  stop : bool Atomic.t;
  started_ns : int;
  active_conns : int Atomic.t;
  conns_lock : Mutex.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  load_lock : Mutex.t;
  (* parsed spec sources keyed by (extra_objects, source text): a file
     is re-read on every submission, so an edit is never answered from
     a stale parse *)
  text_memo : (int * string, Spec.t list * Posl_ident.Universe.t) Hashtbl.t;
}

let sched server = Option.get server.sched

(* --- spec sources ----------------------------------------------------- *)

(* Spec source [text] with its adequate universe, parsed once per
   distinct text.  A failure is typed against [file] (message and byte
   offset) and not remembered. *)
let load_text server ~extra ~file text =
  Mutex.protect server.load_lock @@ fun () ->
  match Hashtbl.find_opt server.text_memo (extra, text) with
  | Some loaded -> Ok loaded
  | None ->
      let r = Manifest.specs_of_source ~extra_objects:extra ~file text in
      Result.iter (Hashtbl.add server.text_memo (extra, text)) r;
      r

let read_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m ->
      Error { Manifest.input_file = path; input_offset = None; input_message = m }
  | text -> Ok text

(* The loader of every spec file a submission names: a [file] source
   and a manifest's [use] targets alike. *)
let load_file server ~extra path =
  Result.bind (read_source path) (load_text server ~extra ~file:path)

(* Resolve a [queries] array against loaded specs, labelling results the
   way the CLI batch table does. *)
let named_requests ~origin ~depth (specs, universe) queries =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc (q : Wire.query_ref) ->
      let* acc = acc in
      let* resolved =
        List.fold_left
          (fun acc name ->
            let* acc = acc in
            (* composition tokens ("A||B") resolve here too, so wire
               queries are planner-eligible like manifest entries *)
            let* s = Manifest.resolve_name specs ~file:origin name in
            Ok (s :: acc))
          (Ok []) q.Wire.names
        |> Result.map List.rev
      in
      let* query = Manifest.query ~kind:q.Wire.kind resolved in
      let label =
        Printf.sprintf "%s: %s" (Filename.basename origin)
          (Job.describe query)
      in
      Ok (Engine.request ~label ~depth ~universe query :: acc))
    (Ok []) queries
  |> Result.map List.rev

let requests_of_submit server (s : Wire.submit) =
  let depth = Option.value s.Wire.depth ~default:6 in
  let extra = Option.value s.Wire.extra_objects ~default:2 in
  let ( let* ) = Result.bind in
  let named ~origin loaded =
    let* loaded = Result.map_error Manifest.input_error_message loaded in
    named_requests ~origin ~depth loaded s.Wire.queries
  in
  let manifest ?path ?dir text =
    Result.map_error Manifest.input_error_detail
      (let* text = text in
       Manifest.requests_of_string_typed ?path ?dir ~default_depth:depth
         ~load:(load_file server ~extra) text)
  in
  match s.Wire.file, s.Wire.spec_text, s.Wire.manifest, s.Wire.manifest_text with
  | Some path, _, _, _ -> named ~origin:path (load_file server ~extra path)
  | _, Some text, _, _ ->
      named ~origin:"inline" (load_text server ~extra ~file:"inline spec" text)
  | _, _, Some path, _ ->
      manifest ~path ~dir:(Filename.dirname path) (read_source path)
  | _, _, _, Some text -> manifest (Ok text)
  | None, None, None, None -> Error "submit carried no spec source"

(* --- worker ----------------------------------------------------------- *)

let run_job server ~wait_ns job =
  job.wait_ns <- wait_ns;
  (* The wait happened on the submitting side of the queue; record it
     as a completed span of the request's tree, timed from enqueue. *)
  let dequeued_ns = Telemetry.now_ns () in
  Telemetry.emit ~context:job.ctx "serve.queue_wait"
    ~attrs:[ ("wait_ms", Printf.sprintf "%.3f" (float_of_int wait_ns /. 1e6)) ]
    ~start_ns:(dequeued_ns - wait_ns) ~dur_ns:wait_ns;
  let expired =
    match job.deadline_ns with
    | Some d when dequeued_ns > d -> true
    | _ -> false
  in
  if expired then begin
    Metrics.incr expired_total;
    Log.event ~level:Log.Warn ~trace_id:job.trace_id
      ~fields:
        [
          ("label", Log.S job.req.Engine.label);
          ("queue_wait_ms", Log.F (float_of_int wait_ns /. 1e6));
        ]
      "serve.expired";
    deliver job Expired
  end
  else
    match
      Telemetry.with_context job.ctx (fun () ->
          Engine.answer server.session server.counters job.req)
    with
    | result -> deliver job (Done result)
    | exception e -> deliver job (Failed (Printexc.to_string e))

(* --- request handling ------------------------------------------------- *)

let ok_op op rest = Json.Obj (("ok", Json.Bool true) :: ("op", Json.Str op) :: rest)

let stats_json server =
  let depth = match server.sched with Some s -> Sched.depth s | None -> 0 in
  let c = Counters.snapshot server.counters in
  ok_op "stats"
    [
      ( "uptime_ms",
        Json.Float
          (float_of_int (Telemetry.now_ns () - server.started_ns) /. 1e6) );
      ("connections_total", Json.Int (Metrics.value connections_total));
      ("requests_total", Json.Int (Metrics.value requests_total));
      ("rejected_total", Json.Int (Metrics.value rejected_total));
      ("expired_total", Json.Int (Metrics.value expired_total));
      ("queue_depth", Json.Int depth);
      ("workers", Json.Int server.cfg.workers);
      ("max_queue", Json.Int server.cfg.max_queue);
      ("spans_dropped", Json.Int (Telemetry.dropped ()));
      ("cache_entries", Json.Int (Cache.size (Engine.session_cache server.session)));
      ("store", Json.Bool (Engine.session_store server.session <> None));
      ( "engine",
        Json.Obj
          [
            ("jobs", Json.Int c.Counters.jobs);
            ("cache_hits", Json.Int c.Counters.hits);
            ("cache_misses", Json.Int c.Counters.misses);
            ("uncacheable", Json.Int c.Counters.uncacheable);
            ("store_hits", Json.Int c.Counters.store_hits);
            ("store_misses", Json.Int c.Counters.store_misses);
            ("store_writes", Json.Int c.Counters.store_writes);
            ("derived_hits", Json.Int c.Counters.derived_hits);
            ("plan_fallbacks", Json.Int c.Counters.plan_fallbacks);
            ("dfa_cache_hits", Json.Int c.Counters.dfa_hits);
            ("dfa_compiles", Json.Int c.Counters.dfa_compiles);
            ("busy_ms", Json.Float c.Counters.busy_ms);
          ] );
    ]

let submit_response ~trace_id ~info jobs =
  let results, failed, expired, slowest =
    List.fold_left
      (fun (acc, failed, expired, slowest) job ->
        match await job with
        | Done r ->
            let failed =
              if Verdict.to_bool r.Engine.verdict then failed else failed + 1
            in
            let slowest =
              match slowest with
              | Some (_, ms, _) when ms >= r.Engine.ms -> slowest
              | _ ->
                  Some
                    (r.Engine.request.Engine.label, r.Engine.ms,
                     r.Engine.digest)
            in
            (Wire.json_of_result r :: acc, failed, expired, slowest)
        | Expired ->
            ( Json.Obj
                [
                  ("label", Json.Str job.req.Engine.label);
                  ( "error",
                    Json.Obj
                      [
                        ("code", Json.Str (Wire.code_string Wire.Deadline_exceeded));
                        ("message", Json.Str "deadline passed while queued");
                      ] );
                ]
              :: acc,
              failed, expired + 1, slowest )
        | Failed msg ->
            ( Json.Obj
                [
                  ("label", Json.Str job.req.Engine.label);
                  ( "error",
                    Json.Obj
                      [
                        ("code", Json.Str (Wire.code_string Wire.Internal));
                        ("message", Json.Str msg);
                      ] );
                ]
              :: acc,
              failed + 1, expired, slowest ))
      ([], 0, 0, None) jobs
  in
  let max_wait_ns = List.fold_left (fun acc j -> max acc j.wait_ns) 0 jobs in
  info :=
    [
      ("jobs", Log.I (List.length jobs));
      ("failed", Log.I failed);
      ("expired", Log.I expired);
      ("queue_wait_ms", Log.F (float_of_int max_wait_ns /. 1e6));
    ]
    @ (match slowest with
      | None -> []
      | Some (label, ms, digest) ->
          ("slowest_label", Log.S label) :: ("slowest_ms", Log.F ms)
          :: (match digest with
             | Some d -> [ ("verdict_digest", Log.S d) ]
             | None -> []));
  ok_op "submit"
    [
      ("trace_id", Json.Str trace_id);
      ("jobs", Json.Int (List.length jobs));
      ("failed", Json.Int failed);
      ("expired", Json.Int expired);
      ("results", Json.List (List.rev results));
    ]

let handle_submit server ~trace_id ~ctx ~info (s : Wire.submit) =
  if Atomic.get server.stop then
    Wire.error_json Wire.Shutting_down "server is draining"
  else
    match requests_of_submit server s with
    | Error msg -> Wire.error_json Wire.Input msg
    | Ok [] -> Wire.error_json Wire.Input "submission produced no queries"
    | Ok requests ->
        let deadline_ns =
          match
            match s.Wire.deadline_ms with
            | Some _ as d -> d
            | None -> server.cfg.deadline_ms
          with
          | None -> None
          | Some ms -> Some (Telemetry.now_ns () + (ms * 1_000_000))
        in
        let jobs =
          List.map
            (fun req ->
              { req; deadline_ns; trace_id; ctx; cell_lock = Mutex.create ();
                cell_cond = Condition.create (); reply = None; wait_ns = 0 })
            requests
        in
        (match Sched.submit_all (sched server) jobs with
        | Sched.Accepted -> submit_response ~trace_id ~info jobs
        | Sched.Overloaded ->
            Metrics.incr rejected_total;
            Log.event ~level:Log.Warn ~trace_id
              ~fields:
                [
                  ("jobs", Log.I (List.length jobs));
                  ("queue_depth", Log.I (Sched.depth (sched server)));
                  ("max_queue", Log.I server.cfg.max_queue);
                ]
              "serve.rejected";
            Wire.error_json Wire.Overloaded
              (Printf.sprintf
                 "admission queue full (%d queued, limit %d) — resubmit later"
                 (Sched.depth (sched server))
                 server.cfg.max_queue)
        | Sched.Stopped ->
            Wire.error_json Wire.Shutting_down "server is draining")

let handle_request server ~trace_id ~ctx ~info = function
  | Wire.Ping -> (ok_op "ping" [], `Continue)
  | Wire.Stats -> (stats_json server, `Continue)
  | Wire.Metrics ->
      Runtime.sample ();
      (ok_op "metrics" [ ("metrics", Json.Str (Metrics.expose ())) ], `Continue)
  | Wire.Shutdown ->
      Atomic.set server.stop true;
      (ok_op "shutdown" [ ("draining", Json.Bool true) ], `Close)
  | Wire.Submit s -> (handle_submit server ~trace_id ~ctx ~info s, `Continue)

(* --- connections ------------------------------------------------------ *)

let track_conn server fd =
  Mutex.lock server.conns_lock;
  Hashtbl.replace server.conns fd ();
  Mutex.unlock server.conns_lock

let untrack_conn server fd =
  Mutex.lock server.conns_lock;
  Hashtbl.remove server.conns fd;
  Mutex.unlock server.conns_lock

let op_name = function
  | Wire.Ping -> "ping"
  | Wire.Stats -> "stats"
  | Wire.Metrics -> "metrics"
  | Wire.Shutdown -> "shutdown"
  | Wire.Submit _ -> "submit"

let handle_conn server ~accept_ctx fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr (Unix.dup fd) in
  let respond doc = Frame.write oc (Json.to_string doc) in
  let rec loop () =
    match Frame.read ~max_bytes:server.cfg.max_frame ic with
    | Error Frame.Eof -> ()
    | Error (Frame.Oversized _ as e) ->
        (* payload bytes were never consumed; the stream is unusable *)
        respond
          (Wire.error_json Wire.Oversized (Format.asprintf "%a" Frame.pp_error e))
    | Error (Frame.Malformed _ as e) ->
        respond
          (Wire.error_json Wire.Malformed (Format.asprintf "%a" Frame.pp_error e))
    | Ok payload ->
        Metrics.incr requests_total;
        let parsed = Wire.parse_request payload in
        (* The request's tree tag: the client's trace id if it sent
           one, a fresh server-side one otherwise.  Every span of this
           request (handle, queue_wait, engine descendants) carries it,
           and submit responses echo it. *)
        let trace_id =
          match parsed with
          | Ok (Wire.Submit { Wire.trace_id = Some t; _ }) -> t
          | Ok _ | Error _ -> fresh_trace_id ()
        in
        let req_ctx =
          { Telemetry.trace_id = Some trace_id;
            parent = accept_ctx.Telemetry.parent }
        in
        let info = ref [] in
        let t0 = Telemetry.now_ns () in
        let doc, next =
          Telemetry.with_context req_ctx @@ fun () ->
          Telemetry.with_span "serve.handle" (fun () ->
              match parsed with
              | Error msg -> (Wire.error_json Wire.Malformed msg, `Continue)
              | Ok req ->
                  Telemetry.set_attrs [ ("op", op_name req) ];
                  let ctx = Telemetry.current_context () in
                  handle_request server ~trace_id ~ctx ~info req)
        in
        respond doc;
        let ms = float_of_int (Telemetry.now_ns () - t0) /. 1e6 in
        (match (server.cfg.slow_ms, parsed) with
        | Some slow, Ok req when ms >= slow ->
            (* slow exemplar: enough to find the request's exact span
               subtree in the trace export (same trace_id) without
               racing worker rings for the spans themselves *)
            Log.event ~level:Log.Warn ~trace_id
              ~fields:
                (("op", Log.S (op_name req)) :: ("ms", Log.F ms)
                 :: ("slow_ms", Log.F slow) :: List.rev !info)
              "serve.slow"
        | _ -> ());
        (match next with `Continue -> loop () | `Close -> ())
  in
  (try loop () with
  | Sys_error _ -> ()            (* client went away mid-write *)
  | Unix.Unix_error _ -> ());
  untrack_conn server fd;
  (try close_out_noerr oc with _ -> ());
  (try close_in_noerr ic with _ -> ());
  Atomic.decr server.active_conns

(* --- listening -------------------------------------------------------- *)

let bind_listen (addr : Wire.addr) =
  match addr with
  | `Unix path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, `Unix path)
  | `Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> `Tcp (host, p)
        | _ -> `Tcp (host, port)
      in
      (fd, bound)

(* Accept with a short poll so the stop flag (set by a signal handler or
   a [shutdown] op on another thread) is noticed promptly even while no
   client is connecting. *)
let accept_loop server listen_fd =
  let rec loop () =
    if not (Atomic.get server.stop) then begin
      let readable =
        match Unix.select [ listen_fd ] [] [] 0.25 with
        | ready, _, _ -> ready <> []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
      in
      (if readable then
         match Unix.accept listen_fd with
         | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
             ()
         | fd, _ ->
             Telemetry.with_span "serve.accept" (fun () ->
                 Metrics.incr connections_total;
                 Atomic.incr server.active_conns;
                 track_conn server fd;
                 (* capture inside the span: handle spans of every
                    request on this connection parent to it *)
                 let accept_ctx = Telemetry.current_context () in
                 ignore
                   (Thread.create (handle_conn server ~accept_ctx) fd)));
      loop ()
    end
  in
  loop ()

let run ?on_ready cfg =
  Runtime.start ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let store = Option.map Store.open_ cfg.store_dir in
  let session = Engine.session ?store () in
  let server =
    {
      cfg;
      session;
      counters = Counters.create ();
      sched = None;
      stop = Atomic.make false;
      started_ns = Telemetry.now_ns ();
      active_conns = Atomic.make 0;
      conns_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      load_lock = Mutex.create ();
      text_memo = Hashtbl.create 8;
    }
  in
  server.sched <-
    Some
      (Sched.create ~workers:cfg.workers ~max_queue:cfg.max_queue
         ~run:(run_job server));
  if cfg.handle_signals then begin
    let trigger _ = Atomic.set server.stop true in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle trigger);
    Sys.set_signal Sys.sigint (Sys.Signal_handle trigger)
  end;
  let listen_fd, bound = bind_listen cfg.addr in
  Log.event
    ~fields:
      [
        ("addr", Log.S (Format.asprintf "%a" Wire.pp_addr bound));
        ("workers", Log.I cfg.workers);
        ("max_queue", Log.I cfg.max_queue);
      ]
    "serve.start";
  Option.iter (fun f -> f bound) on_ready;
  accept_loop server listen_fd;
  (* Drain: stop accepting, finish every queued job (which answers the
     connections blocked on them), then unstick idle readers and wait
     for the handler threads to unwind. *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Sched.drain (sched server);
  Mutex.lock server.conns_lock;
  let remaining = Hashtbl.fold (fun fd () acc -> fd :: acc) server.conns [] in
  Mutex.unlock server.conns_lock;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    remaining;
  let grace_until = Telemetry.now_ns () + 2_000_000_000 in
  while Atomic.get server.active_conns > 0 && Telemetry.now_ns () < grace_until do
    Thread.delay 0.01
  done;
  Option.iter Store.close (Engine.session_store session);
  Log.event
    ~fields:
      [
        ("requests_total", Log.I (Metrics.value requests_total));
        ("spans_dropped", Log.I (Telemetry.dropped ()));
      ]
    "serve.stop";
  Runtime.stop ();
  match bound with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ()
