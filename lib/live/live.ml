(** Liveness extension — the paper's stated future work (Section 9).

    The formalism of the paper is safety-only: trace sets are prefix
    closed and, as Example 5 demonstrates, the refinement relation can
    introduce deadlocks ("Client2‖WriteAcc trivially refines
    Client‖WriteAcc") — the discussion closes with "liveness reasoning
    in this setting will therefore lead to an interesting extension of
    the results presented in this paper".  This module is that
    extension, kept within the finite-trace setting:

    - {b deadlock freedom}: every reachable monitor state has an
      enabled extension;
    - {b response obligations} ⟨trigger, response⟩: whenever a trace
      has more trigger than response events (an "open" trigger), some
      response event must remain {e reachable} — an "always eventually
      answerable" condition, the finite-trace counterpart of response
      liveness;
    - {b live specifications}: a safety specification plus obligations;
    - {b live refinement}: safety refinement (Def. 2) {e plus}
      preservation of the abstract specification's obligations and of
      deadlock freedom — under which Client2 ⋢{_live} Client-with-
      progress even though Client2 ⊑ Client;
    - {b compositional deadlock preservation}: the analysis that makes
      Example 5's phenomenon checkable — given Γ′ ⊑ Γ, does Γ′‖∆ stay
      deadlock free when Γ‖∆ is?

    All checks are relative to a universe sample and a depth, like the
    trace clause of refinement.  Each is a question of [posl.bmc]'s
    product walk: deadlock freedom is {!Bmc.find_deadlock}, a response
    obligation {!Bmc.find_unanswered} (the obligation search cut at
    the depth, the response probe at the depth plus one).  Witnesses
    are certified against the reference semantics and are the
    lexicographically-least shortest refuting traces. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Refine = Posl_core.Refine
module Verdict = Posl_verdict.Verdict

type obligation = {
  name : string;
  trigger : Eventset.t;
  response : Eventset.t;
}

let obligation ~name ~trigger ~response = { name; trigger; response }

(** A live specification: safety plus liveness obligations. *)
type t = {
  spec : Spec.t;
  obligations : obligation list;
  deadlock_free : bool;  (** require global deadlock freedom *)
}

let v ?(deadlock_free = true) ?(obligations = []) spec =
  { spec; obligations; deadlock_free }

let spec t = t.spec
let obligations t = t.obligations

(** [verdict ?depth ctx t]: all liveness requirements of a live
    specification (deadlock freedom when required, then every
    obligation in order) as a structured verdict.  Each is one question
    of the product walk ({!Bmc.find_deadlock}, {!Bmc.find_unanswered});
    the first refutation is the verdict, with its certified witness as
    [Deadlock] or [Unanswerable] evidence. *)
let verdict ?(depth = 6) ctx (t : t) : Verdict.t =
  let alphabet = Spec.concrete_alphabet (Tset.universe ctx) t.spec in
  let tset = Spec.tset t.spec in
  let deadlock () =
    match Bmc.find_deadlock ctx ~alphabet ~depth tset with
    | Some h -> Bmc.Refuted (Verdict.Deadlock h)
    | None -> Bmc.Holds (Bmc.Bounded depth)
  in
  let answered ob () =
    match
      Bmc.find_unanswered ctx ~alphabet ~depth ~trigger:ob.trigger
        ~response:ob.response tset
    with
    | Bmc.Refuted h ->
        Bmc.Refuted (Verdict.Unanswerable { obligation = ob.name; trace = h })
    | Bmc.Holds c -> Bmc.Holds c
  in
  let rec all c = function
    | [] -> Verdict.holds ~confidence:c ()
    | check :: rest -> (
        match check () with
        | Bmc.Refuted ev -> Verdict.refuted [ ev ]
        | Bmc.Holds c' -> all (Verdict.meet c c') rest)
  in
  Verdict.with_context ~procedure:Verdict.Bounded_search ~depth
    (all Bmc.Exact
       ((if t.deadlock_free then [ deadlock ] else [])
       @ List.map answered t.obligations))

(** Boolean convenience wrapper. *)
let live ?depth ctx t = Verdict.is_holds (verdict ?depth ctx t)

(** Live refinement: Γ′ ⊑ Γ (Def. 2) {e and} Γ′ honours Γ's
    obligations (obligations name events of α(Γ) ⊆ α(Γ′), so they are
    meaningful for the refined specification) and deadlock freedom.
    This is the conservative strengthening the paper's discussion
    anticipates: Example 5's Client2 refines Client but fails live
    refinement against any progress obligation on the writes.

    A refuted safety clause is returned as-is (its evidence is the
    Def. 2 counterexample); otherwise the liveness verdict of the
    refined specification under the {e inherited} obligations is
    joined in with {!Verdict.both}. *)
let refine ?depth ctx (refined : t) (abstract : t) : Verdict.t =
  let safety = Refine.verdict ?depth ctx refined.spec abstract.spec in
  if not (Verdict.is_holds safety) then safety
  else
    let inherited =
      {
        spec = refined.spec;
        obligations = abstract.obligations @ refined.obligations;
        deadlock_free = abstract.deadlock_free || refined.deadlock_free;
      }
    in
    Verdict.both safety (verdict ?depth ctx inherited)

(** Example 5 as an analysis: does refining Γ into Γ′ preserve deadlock
    freedom of the composition with ∆?  Returns [Ok] when Γ‖∆ has a
    deadlock anyway (nothing to preserve) or when Γ′‖∆ is deadlock free
    up to the depth; [Error] carries the fresh deadlock of Γ′‖∆. *)
let compositional_deadlock_preservation ctx ~depth ~gamma' ~gamma ~delta :
    (unit, Trace.t) result =
  let u = Tset.universe ctx in
  let abstract_comp = Compose.interface gamma delta in
  let refined_comp = Compose.interface gamma' delta in
  let abstract_alpha = Spec.concrete_alphabet u abstract_comp in
  let refined_alpha = Spec.concrete_alphabet u refined_comp in
  match
    Bmc.find_deadlock ctx ~alphabet:abstract_alpha ~depth
      (Spec.tset abstract_comp)
  with
  | Some _ -> Ok () (* already deadlocked: nothing to preserve *)
  | None -> (
      match
        Bmc.find_deadlock ctx ~alphabet:refined_alpha ~depth
          (Spec.tset refined_comp)
      with
      | None -> Ok ()
      | Some h -> Error h)
