(** A minimal JSON document AST, serializer and parser — the single
    JSON path of the project (the CLI builds its whole [--json] output
    from it, and telemetry's trace and log writers share its escaper). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val add_escaped : Buffer.t -> string -> unit
(** Append the JSON string-body escaping of a string (quotes,
    backslash, control characters); UTF-8 passes through byte-for-byte. *)

val escape : string -> string
(** {!add_escaped} into a fresh string. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse a standard JSON document (the inverse of {!to_string}, but
    accepting any valid JSON, not only our own output): objects,
    arrays, strings with escapes ([\uXXXX] decoded to UTF-8,
    surrogate pairs included), numbers (integers parse to {!Int},
    anything with a fraction or exponent to {!Float}), booleans and
    [null].  Errors carry the byte offset of the first problem. *)
