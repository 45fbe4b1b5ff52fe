(* Leveled structured logging as JSON lines, streamed to an optional
   sink.  An event is rendered only when a sink is installed: with none
   there is no reader, so nothing is built or kept. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type field = S of string | I of int | F of float | B of bool

let threshold = Atomic.make (level_rank Info)
let sink : (string -> unit) option Atomic.t = Atomic.make None

let set_level l = Atomic.set threshold (level_rank l)
let enabled l = level_rank l >= Atomic.get threshold
let set_sink s = Atomic.set sink s

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

let render ~level ~trace_id ~fields name =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"ts\":%.6f" (Unix.gettimeofday ()));
  Buffer.add_string b (Printf.sprintf ",\"mono_ns\":%d" (Telemetry.now_ns ()));
  Buffer.add_string b ",\"level\":\"";
  Buffer.add_string b (level_name level);
  Buffer.add_string b "\",\"event\":\"";
  add_escaped b name;
  Buffer.add_char b '"';
  (match trace_id with
  | None -> ()
  | Some t ->
      Buffer.add_string b ",\"trace_id\":\"";
      add_escaped b t;
      Buffer.add_char b '"');
  List.iter (add_field b) fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- Emission ------------------------------------------------------- *)

let event ?(level = Info) ?trace_id ?(fields = []) name =
  if enabled level then
    match Atomic.get sink with
    | None -> ()
    | Some write ->
        let trace_id =
          match trace_id with
          | Some _ -> trace_id
          | None -> (Telemetry.current_context ()).Telemetry.trace_id
        in
        write (render ~level ~trace_id ~fields name)
