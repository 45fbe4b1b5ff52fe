(** Components and object models (Sections 6 and 7).

    Semantically, every object [o] has a unique alphabet αᵒ — all events
    involving [o] — and a unique trace set Tᵒ describing its possible
    executions.  A component encapsulates a set of objects directly:
    its observable alphabet is the union of the object alphabets minus
    the internal events I(C), and its trace set T{^C} consists of the
    projections onto that alphabet of joint traces that project into
    every Tᵒ (Def. 9).

    Specifications are judged against these models: Γ is a {e sound}
    specification of C when every h ∈ T{^C} satisfies h/α(Γ) ∈ T(Γ)
    (Sections 2 and 7). *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace

(** An object model: the semantic ground truth for one object.  The
    trace set constrains Seq[αᵒ] where αᵒ is every event involving
    [oid]. *)
type model_object = { oid : Oid.t; behaviour : Tset.t }

let model_object ~oid behaviour = { oid; behaviour }

(* αᵒ: all observable events involving the object. *)
let alpha_object o = Eventset.touching (Oset.singleton o.oid)

type t = { objects : model_object list }

let of_objects objects =
  let oids = List.map (fun o -> o.oid) objects in
  if List.length (List.sort_uniq Oid.compare oids) <> List.length oids then
    invalid_arg "Component.of_objects: duplicate object identity";
  { objects }

let objects t = t.objects
let oid_set t = Oid.Set.of_list (List.map (fun o -> o.oid) t.objects)

(** Component composition is union of the underlying object sets
    (Section 6); object uniqueness makes it commutative and
    associative. *)
let union c1 c2 =
  let keys = oid_set c1 in
  let extra =
    List.filter (fun o -> not (Oid.Set.mem o.oid keys)) c2.objects
  in
  of_objects (c1.objects @ extra)

(** α{^C} (Def. 9): union of object alphabets minus internal events. *)
let alpha t =
  let union_alpha =
    List.fold_left
      (fun acc o -> Eventset.union acc (alpha_object o))
      Eventset.empty t.objects
  in
  Eventset.normalise (Eventset.diff union_alpha (Internal.of_set (oid_set t)))

(** T{^C} (Def. 9), as a product trace set over the observable
    alphabet. *)
let tset t =
  Tset.product
    (List.map (fun o -> Tset.part ~alpha:(alpha_object o) o.behaviour) t.objects)
    (alpha t)

(** The component's observable behaviour packaged as a specification —
    the most concrete description of the component. *)
let to_spec ?(name = "component") t =
  Spec.v ~name
    ~objs:(Oid.Set.elements (oid_set t))
    ~alpha:(alpha t) (tset t)

(** Soundness of a specification w.r.t. a component (Sections 2, 7):
    every component trace, projected on the specification alphabet,
    belongs to the specification's trace set.  Checked by exploration
    over a concrete universe, cut at [depth]; [Exact] verdicts (the
    frontier emptied first) are exact for that universe. *)
let sound ctx ~depth (spec : Spec.t) (t : t) : Trace.t Posl_bmc.Bmc.verdict =
  let u = Tset.universe ctx in
  let alphabet = Array.of_list (Eventset.sample u (alpha t)) in
  Posl_bmc.Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet ~depth
    ~lhs:(tset t) ~proj:(Spec.alpha spec) ~rhs:(Spec.tset spec)
