(** OUN-lite: the textual front end, assembled.

    {[
      let specs = Lang.specs_of_string source in
      let by_name = Lang.lookup specs in
      ...
    ]} *)

type error = { message : string; pos : Ast.pos }

let pp_error ppf e =
  Format.fprintf ppf "%a: %s" Ast.pp_pos e.pos e.message

exception Error = Elab.Elab_error

(** Parse a source string into syntax trees. *)
let parse_string (src : string) : (Ast.file, error) result =
  match Parser.file src with
  | f -> Ok f
  | exception Lexer.Lex_error (message, pos) -> Error { message; pos }
  | exception Parser.Parse_error (message, pos) -> Error { message; pos }

type parse = Elab.parse

let specs (p : parse) = p.Elab.specs

(** Parse and elaborate a source string, against a prior parse of the
    same file ({!Elab.elab_file}). *)
let elaborate ?prior (src : string) : (parse, error) result =
  match parse_string src with
  | Error e -> Error e
  | Ok f -> (
      match Elab.elab_file ?prior f with
      | p -> Ok p
      | exception Elab.Elab_error (message, pos) -> Error { message; pos })

(** Parse and elaborate a source string into specifications. *)
let specs_of_string (src : string) : (Posl_core.Spec.t list, error) result =
  Result.map specs (elaborate src)

let lookup (specs : Posl_core.Spec.t list) (name : string) :
    Posl_core.Spec.t option =
  List.find_opt (fun s -> String.equal (Posl_core.Spec.name s) name) specs
