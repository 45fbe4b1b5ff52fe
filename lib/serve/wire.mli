(** The verification service protocol: JSON documents inside
    {!Frame}s.

    Five operations, all request/response over one connection
    (pipelining is allowed — responses come back in request order):

    - [{"op":"ping"}] — liveness probe;
    - [{"op":"stats"}] — server counters (admission queue, engine
      traffic, uptime);
    - [{"op":"metrics"}] — the Prometheus text exposition of the
      process registry, as a JSON string;
    - [{"op":"shutdown"}] — graceful drain and exit;
    - [{"op":"submit", ...}] — one or more verification queries.

    A submission names its specifications through exactly one source:
    [file] (a spec file on the server's filesystem), [spec_text]
    (OUN-lite source inline — fully filesystem-free), [manifest] (a
    batch manifest path) or [manifest_text] (manifest source inline).
    The [file]/[spec_text] forms carry a [queries] array of
    [{"kind": k, "specs": [names...]}] objects; the manifest forms
    embed their queries in the manifest grammar itself.

    Every error response is typed:
    [{"ok":false,"error":{"code":c,"message":m}}] with [c] one of
    [overloaded], [deadline_exceeded], [malformed], [oversized],
    [input], [shutting_down], [internal]. *)

module Json = Posl_verdict.Verdict.Json
module Engine = Posl_engine.Engine

type addr = [ `Unix of string | `Tcp of string * int ]
(** Where a server listens: a Unix-domain socket path, or a TCP
    host/port. *)

val pp_addr : Format.formatter -> addr -> unit

type query_ref = { kind : string; names : string list }
(** One query by spec {e names}, resolved server-side against the
    submission's spec source. *)

type submit = {
  file : string option;
  spec_text : string option;
  manifest : string option;
  manifest_text : string option;
  queries : query_ref list;
  depth : int option;  (** server default: 6 *)
  extra_objects : int option;  (** server default: 2 *)
  deadline_ms : int option;
      (** admission deadline for this submission's jobs; overrides the
          server's [--deadline-ms] default *)
  trace_id : string option;
      (** client-chosen request-tree tag; the server tags every span of
          this request with it (generating one if absent) and echoes it
          in the response, so a slow response can be looked up as its
          exact span tree in the server's [--trace] export *)
}

val submission :
  ?depth:int ->
  ?extra_objects:int ->
  ?deadline_ms:int ->
  ?trace_id:string ->
  ?queries:query_ref list ->
  [ `File of string
  | `Spec_text of string
  | `Manifest of string
  | `Manifest_text of string ] ->
  submit
(** Client-side constructor enforcing the one-source rule. *)

type request = Ping | Stats | Metrics | Shutdown | Submit of submit

val request_json : request -> Json.t
(** Client-side serialization (the inverse of {!parse_request}). *)

val parse_request : string -> (request, string) result
(** Parse one frame payload.  Errors are human-readable and become
    [malformed] error responses. *)

type error_code =
  | Overloaded  (** admission queue full — resubmit later *)
  | Deadline_exceeded
  | Malformed
  | Oversized
  | Input  (** unknown spec name, unreadable file, parse error *)
  | Shutting_down
  | Internal

val code_string : error_code -> string
val error_json : error_code -> string -> Json.t

(** {1 Shared result serialization}

    The CLI's [batch --json] documents and the server's [submit]
    responses carry the same per-result objects, and batch's stats
    object and the [stats] op's [engine] object the same fields — one
    serializer for each, used by both. *)

val json_of_result : Engine.result -> Json.t

val stats_fields : Engine.stats -> (string * Json.t) list
(** Every {!Engine.stats} field, keyed by its name: the one field list
    behind batch's stats object and the [stats] op's [engine] object. *)

val json_of_stats : Engine.stats -> failed:int -> Json.t
(** {!stats_fields} plus [failed], the results that do not hold. *)
