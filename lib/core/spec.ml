(** Specifications Γ = ⟨O, α, T⟩ (Def. 1 of the paper).

    A specification of a set of objects [O] is a {e partial} description:
    its alphabet α is a subset of the events the objects can engage in,
    and several specifications of the same object — different
    viewpoints, roles, or aspects — may coexist.  The trace set T is a
    prefix-closed subset of Seq[α] (safety properties only).

    Well-formedness (Def. 1's side condition) requires the alphabet to
    consist of events touching the object set but not internal to it:
    α ⊆ ∪{αᵒ | o ∈ O} minus the events with both end points in O. *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event

type t = {
  name : string;
  objs : Oid.Set.t;
  alpha : Eventset.t;
  tset : Tset.t;
  parts : (t * t) option;
      (* construction provenance: [Some (g, d)] iff this value was
         built by [Compose] as g ‖ d.  Never consulted by the checkers
         (the verdict stays a pure function of objs/alpha/tset, and the
         content digest ignores it) — it only lets the engine's planner
         recognise composite operands and decompose queries. *)
  key : (Universe.t * string option) option Atomic.t;
      (* the content key last derived from this value ([keyed]) and the
         universe it was derived under; it goes with the value *)
}

type error =
  | Empty_object_set
  | Alphabet_internal of Eventset.t
      (** witness: alphabet events internal to the object set *)
  | Alphabet_detached of Eventset.t
      (** witness: alphabet events touching no object of the set *)

let pp_error ppf = function
  | Empty_object_set -> Format.pp_print_string ppf "empty object set"
  | Alphabet_internal es ->
      Format.fprintf ppf "alphabet contains internal events: %a" Eventset.pp es
  | Alphabet_detached es ->
      Format.fprintf ppf
        "alphabet contains events not involving any specified object: %a"
        Eventset.pp es

let validate ~name:_ ~objs ~alpha =
  if Oid.Set.is_empty objs then Error Empty_object_set
  else
    let internal = Internal.of_set objs in
    let bad_internal = Eventset.inter alpha internal in
    if not (Eventset.is_empty bad_internal) then
      Error (Alphabet_internal bad_internal)
    else
      let touching =
        Eventset.touching (Oset.of_list (Oid.Set.elements objs))
      in
      let detached = Eventset.diff alpha touching in
      if not (Eventset.is_empty detached) then
        Error (Alphabet_detached detached)
      else Ok ()

(** [v ~name ~objs ~alpha tset] builds a well-formed specification;
    raises [Invalid_argument] when Def. 1's side conditions fail.  Use
    {!validate} first to inspect failures programmatically. *)
let v ~name ~objs ~alpha tset =
  let objs = Oid.Set.of_list objs in
  match validate ~name ~objs ~alpha with
  | Ok () -> { name; objs; alpha; tset; parts = None; key = Atomic.make None }
  | Error e -> invalid_arg (Format.asprintf "Spec.v %s: %a" name pp_error e)

let name t = t.name
let objs t = t.objs
let alpha t = t.alpha
let tset t = t.tset
let with_name name t = { t with name; key = Atomic.make None }
let parts t = t.parts
let with_parts g d t = { t with parts = Some (g, d); key = Atomic.make None }

(* Racing callers compute equal keys, so whichever write lands last is
   as good as the other. *)
let keyed t ~universe derive =
  match Atomic.get t.key with
  | Some (u, key) when compare u universe = 0 -> key
  | Some _ | None ->
      let key = derive () in
      Atomic.set t.key (Some (universe, key));
      key

(** Interface specification: a specification of a single object
    (Section 2). *)
let is_interface t = Oid.Set.cardinal t.objs = 1

(** The communication environment: objects outside O involved in events
    of α (Section 2).  Exact, as a symbolic object set. *)
let environment t =
  let endpoint_union =
    List.fold_left
      (fun acc r -> Oset.union acc (Oset.union (Rect.callers r) (Rect.callees r)))
      Oset.empty
      (Eventset.rects (Eventset.normalise t.alpha))
  in
  Oset.diff endpoint_union (Oset.of_list (Oid.Set.elements t.objs))

(** Trace membership: h ∈ T(Γ), with h required to range over α(Γ). *)
let mem ctx t h =
  List.for_all (fun e -> Eventset.mem e t.alpha) (Trace.to_list h)
  && Tset.mem ctx t.tset h

(** The concrete alphabet of the specification over a universe
    sample — the symbol set of automata and bounded exploration. *)
let concrete_alphabet u t = Array.of_list (Eventset.sample u t.alpha)

(** A universe adequate for a family of specifications: all identifiers
    mentioned by their alphabets and trace sets, padded with
    [extra_objects] fresh environment objects (so that co-finite sorts
    have inhabitants beyond the named ones), plus a spare method and
    value. *)
let adequate_universe ?(extra_objects = 2) specs =
  let union3 (a, b, c) (a', b', c') =
    (Oid.Set.union a a', Mth.Set.union b b', Value.Set.union c c')
  in
  let os, ms, vs =
    List.fold_left
      (fun acc t ->
        let from_alpha = Eventset.mentioned t.alpha in
        let from_tset = Tset.mentioned t.tset in
        union3 acc
          (union3 from_alpha
             (union3 from_tset (t.objs, Mth.Set.empty, Value.Set.empty))))
      (Oid.Set.empty, Mth.Set.empty, Value.Set.empty)
      specs
  in
  let objects =
    Oid.Set.elements os @ Oid.fresh_many_outside extra_objects os
  in
  let methods =
    if Mth.Set.is_empty ms then [ Mth.v "m1" ] else Mth.Set.elements ms
  in
  let values =
    if Value.Set.is_empty vs then [ Value.v "d1" ] else Value.Set.elements vs
  in
  Universe.make ~objects ~methods ~values

let pp ppf t =
  Format.fprintf ppf "@[<v2>spec %s:@,objects: {%a}@,alphabet: %a@,traces: %a@]"
    t.name
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Oid.pp)
    (Oid.Set.elements t.objs)
    Eventset.pp t.alpha Tset.pp t.tset
