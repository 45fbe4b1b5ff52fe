(** Finite communication traces and the paper's filtering operators.

    A trace records the life of an object or component up to a point in
    time: the finite sequence of observable communication events, head
    first.  Trace sets built from these are always prefix closed
    (safety properties, Section 2). *)

type t = Event.t list
(** The representation is exposed: traces are ordinary lists and
    pattern matching over them is encouraged. *)

val empty : t
val of_list : Event.t list -> t
val to_list : t -> Event.t list
val length : t -> int
val is_empty : t -> bool

val snoc : t -> Event.t -> t
(** [snoc h e] extends the trace with one more event — the step
    operation of monitors and exploration. *)

val restrict : keep:(Event.t -> bool) -> t -> t
(** [restrict ~keep h] is the paper's [h/S] for the set denoted by the
    predicate: the subsequence of events satisfying [keep]. *)

val delete : drop:(Event.t -> bool) -> t -> t
(** [delete ~drop h] is the paper's [h\S]: the subsequence of events
    {e not} satisfying [drop]. *)

val restrict_obj : Posl_ident.Oid.t -> t -> t
(** [restrict_obj o h] is [h/o]: the events involving object [o]. *)

val restrict_mth : Posl_ident.Mth.t -> t -> t
(** [restrict_mth m h] is [h/M]: the events calling method [m]. *)

val count_mth : Posl_ident.Mth.t -> t -> int
(** [count_mth m h] is the paper's ♯(h/M). *)

val prefixes : t -> t list
(** All prefixes, shortest first, from the empty trace to [h] itself.
    Membership in a "largest prefix-closed subset" trace set quantifies
    over exactly this list. *)

val proper_prefixes : t -> t list
val is_prefix_of : t -> t -> bool
val equal : t -> t -> bool

val objects : t -> Posl_ident.Oid.Set.t
(** The finite set of object identities occurring in the trace; decides
    per-object quantified predicates (∀x ∈ Objects : … h/x …) on
    concrete traces. *)

val pp : Format.formatter -> t -> unit
