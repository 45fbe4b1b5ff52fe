(** Communication events.

    An observable communication event is the triple ⟨o₂, o₁, m⟩ of the
    paper — [caller] o₂ invokes method [m] of [callee] o₁ — optionally
    carrying one data parameter, as in [⟨x, o, W(d)⟩].

    Well-formed events always have [caller ≠ callee]: internal
    self-calls are not observable (Section 2 of the paper), and every
    symbolic decision procedure of {!Posl_sets} relies on the event
    universe being diagonal-free. *)

open Posl_ident

type t

val make : ?arg:Value.t -> caller:Oid.t -> callee:Oid.t -> Mth.t -> t
(** [make ?arg ~caller ~callee m] is the event of [caller] invoking
    [m(arg)] on [callee].  Raises [Invalid_argument] when
    [caller = callee]. *)

val caller : t -> Oid.t
val callee : t -> Oid.t
val mth : t -> Mth.t
val arg : t -> Value.t option

val involves : Oid.t -> t -> bool
(** [involves o e] — is [o] the caller or the callee of [e]?  The
    membership test behind the paper's [h/o] filter. *)

val has_mth : Mth.t -> t -> bool
(** [has_mth m e] — does [e] call method [m]?  Behind the paper's [h/M]
    filter. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
