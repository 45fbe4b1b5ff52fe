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

type parse
(** A file's elaboration: its specifications, each kept with its
    declaration, source positions aside. *)

val specs : parse -> Posl_core.Spec.t list
(** In file order. *)

val elaborate : ?prior:parse -> string -> (parse, error) result
(** Lex + parse + elaborate, against [prior], an earlier parse of the
    same file: a declaration equal to one of [prior]'s, source positions
    aside, gets that declaration's specification value back (physically
    equal), and with it the content key and the context nodes the value
    already holds; any other declaration is elaborated afresh.  Each
    prior declaration is matched at most once, in file order, so two
    identical declarations keep two values.  Elaboration reads nothing
    outside a declaration, so the specifications are the ones a parse
    without [prior] gives, up to physical identity, and so are the
    errors. *)

val specs_of_string : string -> (Posl_core.Spec.t list, error) result
(** Lex + parse + elaborate: [specs] of [elaborate] without a prior. *)

val lookup : Posl_core.Spec.t list -> string -> Posl_core.Spec.t option
