(** Assumption/guarantee interface specifications.

    Section 9 of the paper situates the formalism as the semantic basis
    of OUN, which "relies on input/output driven assumption guarantee
    specifications of generic behavioral interfaces".  This module
    provides that specification style on top of the trace-set core:

    - the {e input} events of an object are those where it is the
      callee, the {e output} events those where it is the caller;
    - a contract ⟨A, G⟩ constrains the object to keep its guarantee [G]
      (on its whole observable behaviour) {e as long as} the
      environment has respected the assumption [A] (on the input
      projection) strictly before: a trace h is admitted iff for every
      prefix h′, (∀ h″ < h′ : A(h″/in)) ⇒ G(h′).

    The classical A/G refinement rule — weaken the assumption,
    strengthen the guarantee — is exposed as a checkable proposition
    ({!refinement_rule}) and verified against Def. 2 refinement in the
    test suite. *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec

type t = {
  assumption : Tset.t;  (** over the input projection *)
  guarantee : Tset.t;  (** over the object's observable behaviour *)
  inputs : Eventset.t;
  outputs : Eventset.t;
}

let v ~assumption ~guarantee ~inputs ~outputs =
  { assumption; guarantee; inputs; outputs }

(** The input/output split of an object set: events where a specified
    object is the callee vs. the caller. *)
let io_of_objs (objs : Oid.t list) =
  let os = Oset.of_list objs in
  let inputs =
    Eventset.calls ~args:Argsel.full ~callers:(Oset.compl os) ~callees:os
      Mset.full
  in
  let outputs =
    Eventset.calls ~args:Argsel.full ~callers:os ~callees:(Oset.compl os)
      Mset.full
  in
  (inputs, outputs)

let assumption t = t.assumption
let guarantee t = t.guarantee

(* Has the environment respected the assumption strictly before this
   point?  All proper prefixes' input projections must satisfy A.
   Prefix closure of A makes the longest proper prefix sufficient. *)
let env_ok ctx t h =
  match Trace.to_list (Eventset.restrict_trace t.inputs h) with
  | [] -> true
  | _ ->
      let before =
        match List.rev (Trace.to_list h) with
        | [] -> []
        | _ :: rev_init -> List.rev rev_init
      in
      Tset.mem ctx t.assumption
        (Eventset.restrict_trace t.inputs (Trace.of_list before))

(** The contract's trace set: the largest prefix-closed set of traces
    in which the guarantee holds at every point where the assumption
    held strictly before. *)
let to_tset ctx (t : t) : Tset.t =
  Tset.pointwise "assume-guarantee" (fun h ->
      (not (env_ok ctx t h)) || Tset.mem ctx t.guarantee h)

(** Package a contract as a specification of [objs] over [alpha]. *)
let spec ctx ~name ~objs ~alpha (t : t) : Spec.t =
  Spec.v ~name ~objs ~alpha (to_tset ctx t)

(** The A/G refinement rule: with the same alphabet and objects,
    weakening the assumption (A ⊆ A′) and strengthening the guarantee
    (G′ ⊆ G) refines the contract: T⟨A′,G′⟩ ⊆ T⟨A,G⟩.  The premises
    are checked by bounded inclusion over the sampled alphabet; the
    conclusion by Def. 2 refinement of the packaged specifications. *)
type rule_outcome =
  | Rule_applies of Bmc.confidence
  | Premise_fails of [ `Assumption_not_weaker | `Guarantee_not_stronger ]

let pp_rule_outcome ppf = function
  | Rule_applies c ->
      Format.fprintf ppf "rule applies [%a]" Bmc.pp_confidence c
  | Premise_fails `Assumption_not_weaker ->
      Format.pp_print_string ppf "premise fails: assumption not weaker"
  | Premise_fails `Guarantee_not_stronger ->
      Format.pp_print_string ppf "premise fails: guarantee not stronger"

let refinement_rule ctx ~depth ~alphabet ~(refined : t) ~(abstract : t) :
    rule_outcome =
  let included lhs rhs =
    match
      Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet ~depth ~lhs
        ~proj:Eventset.full ~rhs
    with
    | Bmc.Holds c -> Some c
    | Bmc.Refuted _ -> None
  in
  (* A ⊆ A′ over the input events *)
  match included abstract.assumption refined.assumption with
  | None -> Premise_fails `Assumption_not_weaker
  | Some c1 -> (
      (* G′ ⊆ G *)
      match included refined.guarantee abstract.guarantee with
      | None -> Premise_fails `Guarantee_not_stronger
      | Some c2 ->
          Rule_applies
            (match (c1, c2) with
            | Bmc.Exact, Bmc.Exact -> Bmc.Exact
            | Bmc.Bounded k, _ | _, Bmc.Bounded k -> Bmc.Bounded k))
