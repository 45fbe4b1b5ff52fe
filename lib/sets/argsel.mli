(** Selectors over the optional data argument of an event.

    The argument domain is [Data ⊎ {no argument}]: a method call either
    carries one data value ([W(d)]) or none ([OW]).  A selector denotes
    a subset of that domain; the representation (a flag for the
    no-argument case plus a symbolic value set) keeps the whole event
    algebra exactly complementable. *)

type t

val make : allow_none:bool -> Vset.t -> t

val none_only : t
(** Only argument-less calls — the paper's OW, CW, OR, CR, OK events. *)

val any_value : t
(** Calls carrying any data value — the paper's R(d), W(d) events. *)

val value_in : Vset.t -> t
val full : t
val empty : t

val mem : Posl_ident.Value.t option -> t -> bool
val compl : t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val is_empty : t -> bool
val subset : t -> t -> bool
val allow_none : t -> bool
val values : t -> Vset.t

val sample : Posl_ident.Value.t list -> t -> Posl_ident.Value.t option list
(** Members of the selector over a finite value sample ([None] first
    when argument-less calls are allowed). *)

val pp : Format.formatter -> t -> unit
