(** Specifications Γ = ⟨O, α, T⟩ (Def. 1 of the paper).

    A specification of a set of objects is a {e partial} description:
    its alphabet is a subset of the events the objects can engage in,
    and several specifications of the same object — viewpoints, roles,
    aspects — may coexist.  The trace set is a prefix-closed subset of
    Seq[α] (safety only). *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset

type t

type error =
  | Empty_object_set
  | Alphabet_internal of Eventset.t
      (** witness: alphabet events internal to the object set *)
  | Alphabet_detached of Eventset.t
      (** witness: alphabet events touching no specified object *)

val pp_error : Format.formatter -> error -> unit

val validate :
  name:string -> objs:Oid.Set.t -> alpha:Eventset.t -> (unit, error) result
(** Def. 1's side condition, decided symbolically:
    α ⊆ ∪{αᵒ | o ∈ O} − I(O). *)

val v : name:string -> objs:Oid.t list -> alpha:Eventset.t -> Tset.t -> t
(** Build a well-formed specification; raises [Invalid_argument] when
    {!validate} fails. *)

val name : t -> string
val objs : t -> Oid.Set.t
val alpha : t -> Eventset.t
val tset : t -> Tset.t
val with_name : string -> t -> t

val parts : t -> (t * t) option
(** Construction provenance: [Some (g, d)] iff this value was built by
    [Compose] as g ‖ d.  Purely advisory — the checkers and the content
    digest never consult it; the engine's planner uses it to recognise
    composite operands and decompose queries by the paper's composition
    theorems. *)

val with_parts : t -> t -> t -> t
(** [with_parts g d s] records that [s] was built as g ‖ d.  Used by
    [Compose]; callers constructing equivalent compositions by hand may
    record parts to make a value planner-recognisable. *)

val keyed :
  t -> universe:Universe.t -> (unit -> string option) -> string option
(** [keyed s ~universe derive] is [derive ()], kept by [s] itself: asked
    again under a structurally equal universe, it answers without
    calling [derive].  This is where a spec's content key lives (the
    engine derives it with [Digest.spec_key], which serializes the
    whole body), so it is taken once per value and goes with the value:
    a superseded parse takes its keys along, and no table outside the
    value holds them.  A value keeps the key of the last universe it
    was asked under.  {!v}, {!with_name} and {!with_parts} return
    values with none.  Thread-safe: racing callers derive equal keys. *)

val is_interface : t -> bool
(** A specification of a single object (Section 2). *)

val environment : t -> Oset.t
(** The communication environment: objects outside O involved in events
    of α (Section 2).  Exact and possibly co-finite (infinite). *)

val mem : Tset.ctx -> t -> Posl_trace.Trace.t -> bool
(** [mem ctx s h] — h ∈ T(Γ) and h ranges over α(Γ). *)

val concrete_alphabet : Universe.t -> t -> Posl_trace.Event.t array
(** The symbol set of automata and bounded exploration. *)

val adequate_universe : ?extra_objects:int -> t list -> Universe.t
(** A universe sample adequate for the given specifications: every
    identifier they mention, padded with fresh environment objects (so
    co-finite sorts have unnamed inhabitants) and default method/value
    entries if empty. *)

val pp : Format.formatter -> t -> unit
