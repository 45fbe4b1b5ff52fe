(* Leveled structured logging as JSON lines, over the same
   bounded-ring discipline as spans: a fixed-capacity in-process ring
   keeps the most recent events (drop-oldest, counted), and an optional
   sink streams every accepted event as it is recorded.

   Unlike spans there is one global ring, not one per domain: log
   events are per-request or per-round, orders of magnitude rarer than
   spans, so a single mutex is cheap and keeps emission ordered. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field = S of string | I of int | F of float | B of bool

type event = {
  wall : float;  (* Unix epoch seconds at emission *)
  mono_ns : int;  (* monotonic clock, comparable with span times *)
  level : level;
  event : string;
  trace_id : string option;
  fields : (string * field) list;
}

let ring_cap = 4096

let dummy =
  { wall = 0.; mono_ns = 0; level = Debug; event = ""; trace_id = None;
    fields = [] }

let mu = Mutex.create ()
let buf = Array.make ring_cap dummy
let written = ref 0
let threshold = Atomic.make (level_rank Info)
let sink : (string -> unit) option ref = ref None

let set_level l = Atomic.set threshold (level_rank l)
let enabled l = level_rank l >= Atomic.get threshold

let set_sink s =
  Mutex.lock mu;
  sink := s;
  Mutex.unlock mu

(* --- JSON rendering ------------------------------------------------- *)

let add_escaped = Posl_json.Json.add_escaped

let add_field b (k, v) =
  Buffer.add_string b ",\"";
  add_escaped b k;
  Buffer.add_string b "\":";
  match v with
  | S s ->
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
  | I n -> Buffer.add_string b (string_of_int n)
  | F x ->
      (* %.6g never prints nan/inf-free JSON for those values; clamp *)
      if Float.is_finite x then
        Buffer.add_string b (Printf.sprintf "%.6g" x)
      else Buffer.add_string b "null"
  | B true -> Buffer.add_string b "true"
  | B false -> Buffer.add_string b "false"

let json_of_event e =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"ts\":%.6f" e.wall);
  Buffer.add_string b (Printf.sprintf ",\"mono_ns\":%d" e.mono_ns);
  Buffer.add_string b ",\"level\":\"";
  Buffer.add_string b (level_name e.level);
  Buffer.add_string b "\",\"event\":\"";
  add_escaped b e.event;
  Buffer.add_char b '"';
  (match e.trace_id with
  | None -> ()
  | Some t ->
      Buffer.add_string b ",\"trace_id\":\"";
      add_escaped b t;
      Buffer.add_char b '"');
  List.iter (add_field b) e.fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- Emission ------------------------------------------------------- *)

let event ?(level = Info) ?trace_id ?(fields = []) name =
  if enabled level then begin
    let trace_id =
      match trace_id with
      | Some _ -> trace_id
      | None -> (Telemetry.current_context ()).Telemetry.trace_id
    in
    let e =
      { wall = Unix.gettimeofday (); mono_ns = Telemetry.now_ns (); level;
        event = name; trace_id; fields }
    in
    Mutex.lock mu;
    buf.(!written mod ring_cap) <- e;
    incr written;
    let s = !sink in
    Mutex.unlock mu;
    match s with Some write -> write (json_of_event e) | None -> ()
  end

let events () =
  Mutex.lock mu;
  let n = !written in
  let evs =
    if n <= ring_cap then List.init n (fun i -> buf.(i))
    else List.init ring_cap (fun i -> buf.((n + i) mod ring_cap))
  in
  Mutex.unlock mu;
  evs

let dropped () = max 0 (!written - ring_cap)

let to_json_lines () =
  String.concat "" (List.map (fun e -> json_of_event e ^ "\n") (events ()))

let reset () =
  Mutex.lock mu;
  written := 0;
  Mutex.unlock mu
