(** OUN-lite: the textual specification front end.

    {v
    spec Write {
      objects o;
      sort Env = all except { o };
      alphabet call Env -> o : OW, CW, W(data);
      traces prs (bind x in Env . (<x,o,OW> <x,o,W(_)>* <x,o,CW>))*;
    }
    v}

    See {!Ast} for the grammar, {!Elab} for name resolution, and
    [examples/specs/paper.oun] for the paper's full cast. *)

type error = { message : string; pos : Ast.pos }

val pp_error : Format.formatter -> error -> unit

exception Error of string * Ast.pos
(** Re-export of the elaboration error (for direct {!Elab} use). *)

val parse_string : string -> (Ast.file, error) result
(** Lex + parse only. *)

val specs_of_string : string -> (Posl_core.Spec.t list, error) result
(** Lex + parse + elaborate. *)

val lookup : Posl_core.Spec.t list -> string -> Posl_core.Spec.t option
