(* Structured spans over per-thread ring buffers.

   Design notes:

   - One ring per systhread, created lazily on the first span that
     thread records.  Per-domain rings are not enough: the server
     handles each connection on a systhread, and systhreads of one
     domain sharing a ring would also share its open-span stack, so
     concurrent requests would inherit each other's parentage and
     trace ids.  Rings are single-writer (the owning thread) and
     registered in a global list so they survive thread and domain
     exit: [Par.map_dyn] spawns fresh domains on every call,
     and their spans must still be readable after the join.

   - The thread -> ring map is a mutex-protected table; the owning
     thread caches its binding in [Domain.DLS], so the lock is only
     taken on a thread's first span after a context switch brought a
     different thread onto the domain.  The cache slot is safe without
     the lock because a domain runs exactly one systhread at a time.

   - Rings start small and double up to [ring_cap]; past the cap the
     oldest completed spans are overwritten (drop-oldest) and counted
     in [dropped].  A short-lived worker domain therefore costs a few
     hundred words, not a preallocated 64k-slot buffer.

   - The fast path when disabled is a single [Atomic.get] before
     calling [f] — no allocation beyond the closure the caller already
     built, no clock read, no DLS access.

   - [spans]/[reset]/[trace_json] walk every registered ring and must
     only be called when no other domain is recording (after joins);
     the engine and the CLI satisfy this by construction. *)

external monotonic_ns : unit -> int = "posl_telemetry_monotonic_ns" [@@noalloc]

let now_ns = monotonic_ns

type span = {
  id : int;
  parent : int option;
  trace_id : string option;
  name : string;
  tid : int;
  start_ns : int;
  dur_ns : int;
  attrs : (string * string) list;
}

type context = { trace_id : string option; parent : int option }

let root_context : context = { trace_id = None; parent = None }

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b
let next_span_id = Atomic.make 1
let next_tid = Atomic.make 1
let ring_cap = 65536
let initial_cap = 256

let dummy =
  { id = 0; parent = None; trace_id = None; name = ""; tid = 0; start_ns = 0;
    dur_ns = 0; attrs = [] }

type open_span = {
  o_id : int;
  o_parent : int option;
  o_trace : string option;
  o_name : string;
  o_start_ns : int;
  mutable o_attrs : (string * string) list;
}

type ring = {
  tid : int;
  mutable buf : span array;
  mutable written : int;  (* total spans ever pushed to this ring *)
  mutable stack : open_span list;  (* innermost open span first *)
  mutable ctxs : context list;  (* installed contexts, innermost first *)
}

let rings_mu = Mutex.create ()
let rings : ring list ref = ref []
let rings_by_thread : (int, ring) Hashtbl.t = Hashtbl.create 64

let ring_cache : (int * ring) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let my_ring () =
  let t = Thread.id (Thread.self ()) in
  let cache = Domain.DLS.get ring_cache in
  match !cache with
  | Some (t', r) when t' = t -> r
  | _ ->
      Mutex.lock rings_mu;
      let r =
        match Hashtbl.find_opt rings_by_thread t with
        | Some r -> r
        | None ->
            let r =
              { tid = Atomic.fetch_and_add next_tid 1;
                buf = Array.make initial_cap dummy; written = 0; stack = [];
                ctxs = [] }
            in
            rings := r :: !rings;
            Hashtbl.add rings_by_thread t r;
            r
      in
      Mutex.unlock rings_mu;
      cache := Some (t, r);
      r

let all_rings () =
  Mutex.lock rings_mu;
  let rs = !rings in
  Mutex.unlock rings_mu;
  rs

(* Drops are also surfaced as a Prometheus counter so long-running
   services notice wrap-around without polling [dropped]. *)
let spans_dropped_c =
  Metrics.counter
    ~help:"Completed telemetry spans overwritten by ring wrap-around"
    "posl_telemetry_spans_dropped_total"

let push r sp =
  let len = Array.length r.buf in
  if r.written >= len && len < ring_cap then begin
    let len' = min ring_cap (2 * len) in
    let buf' = Array.make len' dummy in
    Array.blit r.buf 0 buf' 0 len;
    r.buf <- buf'
  end;
  if r.written >= Array.length r.buf then Metrics.incr spans_dropped_c;
  r.buf.(r.written mod Array.length r.buf) <- sp;
  r.written <- r.written + 1

(* Parent and trace id a new span inherits: the innermost open span of
   the calling domain, else the innermost installed context. *)
let inherited r =
  match r.stack with
  | o :: _ -> (Some o.o_id, o.o_trace)
  | [] -> (
      match r.ctxs with
      | c :: _ -> (c.parent, c.trace_id)
      | [] -> (None, None))

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let r = my_ring () in
    let parent, trace = inherited r in
    let o =
      { o_id = Atomic.fetch_and_add next_span_id 1; o_parent = parent;
        o_trace = trace; o_name = name; o_start_ns = now_ns ();
        o_attrs = attrs }
    in
    r.stack <- o :: r.stack;
    let finish () =
      let stop = now_ns () in
      (match r.stack with
      | top :: rest when top == o -> r.stack <- rest
      | st -> r.stack <- List.filter (fun x -> x != o) st);
      push r
        { id = o.o_id; parent = o.o_parent; trace_id = o.o_trace;
          name = o.o_name; tid = r.tid; start_ns = o.o_start_ns;
          dur_ns = stop - o.o_start_ns; attrs = o.o_attrs }
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let with_context (c : context) f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let r = my_ring () in
    r.ctxs <- c :: r.ctxs;
    let finish () =
      match r.ctxs with
      | top :: rest when top == c -> r.ctxs <- rest
      | l -> r.ctxs <- List.filter (fun x -> x != c) l
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let current_context () =
  if not (Atomic.get enabled_flag) then root_context
  else
    let r = my_ring () in
    match r.stack with
    | o :: _ -> { trace_id = o.o_trace; parent = Some o.o_id }
    | [] -> ( match r.ctxs with c :: _ -> c | [] -> root_context)

let emit ?context ?(attrs = []) name ~start_ns ~dur_ns =
  if Atomic.get enabled_flag then begin
    let r = my_ring () in
    let parent, trace =
      match context with
      | Some c -> (c.parent, c.trace_id)
      | None -> inherited r
    in
    push r
      { id = Atomic.fetch_and_add next_span_id 1; parent; trace_id = trace;
        name; tid = r.tid; start_ns; dur_ns; attrs }
  end

let set_attrs kvs =
  if Atomic.get enabled_flag then
    match (my_ring ()).stack with
    | [] -> ()
    | o :: _ -> o.o_attrs <- o.o_attrs @ kvs

let current_span_id () =
  if not (Atomic.get enabled_flag) then None
  else match (my_ring ()).stack with [] -> None | o :: _ -> Some o.o_id

let ring_spans r =
  let len = Array.length r.buf in
  if r.written <= len then Array.to_list (Array.sub r.buf 0 r.written)
  else
    (* full ring: oldest surviving span sits at the write cursor *)
    let start = r.written mod len in
    List.init len (fun i -> r.buf.((start + i) mod len))

let spans () =
  all_rings ()
  |> List.concat_map ring_spans
  |> List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id))

let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.written - Array.length r.buf))
    0 (all_rings ())

let reset () =
  List.iter
    (fun r ->
      r.written <- 0;
      r.stack <- [];
      r.ctxs <- [])
    (all_rings ())

(* --- Chrome trace_event export ---------------------------------------

   Streamed into one buffer rather than built as a [Json.t] tree (a
   trace can hold every ring's worth of spans); strings go through the
   shared escaper. *)

let add_escaped = Posl_json.Json.add_escaped

let trace_json () =
  let sps = spans () in
  let t0 =
    List.fold_left (fun acc s -> min acc s.start_ns) max_int sps
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":\"";
      add_escaped b s.name;
      Buffer.add_string b "\",\"cat\":\"posl\",\"ph\":\"X\",\"pid\":1";
      Buffer.add_string b
        (Printf.sprintf ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f" s.tid
           (float_of_int (s.start_ns - t0) /. 1000.)
           (float_of_int s.dur_ns /. 1000.));
      Buffer.add_string b
        (Printf.sprintf ",\"args\":{\"span_id\":%d" s.id);
      (match s.parent with
      | None -> ()
      | Some p -> Buffer.add_string b (Printf.sprintf ",\"parent\":%d" p));
      (match s.trace_id with
      | None -> ()
      | Some t ->
          Buffer.add_string b ",\"trace_id\":\"";
          add_escaped b t;
          Buffer.add_string b "\"");
      List.iter
        (fun (k, v) ->
          Buffer.add_string b ",\"";
          add_escaped b k;
          Buffer.add_string b "\":\"";
          add_escaped b v;
          Buffer.add_string b "\"")
        s.attrs;
      Buffer.add_string b "}}")
    sps;
  Buffer.add_string b "]}";
  Buffer.contents b

let write_trace path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (trace_json ());
      output_char oc '\n')
