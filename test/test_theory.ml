(* The paper's theorems over random instance families — the
   reproduction's substitute for the authors' PVS proofs.  Positive
   campaigns check the theorems on premise-satisfying instances built by
   construction; the negative campaign confirms that dropping
   properness can break Theorem 16's conclusion (the paper's motivation
   for the side condition). *)

open Posl_ident
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Eventset = Posl_sets.Eventset
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module G = QCheck2.Gen
module Gen = Posl_gen.Gen

let sc = Util.sc
let ctx = Util.ctx
let depth = 4
let k0 = Oid.v "k0"
let k1 = Oid.v "k1"
let r0 = Oid.v "r0"

let not_failed o = not (Theory.is_fail o)

(* Theorem 7 instances: interface Γ ⊑ Γ′ by construction, independent ∆. *)
let gen_thm7 =
  let open G in
  let* gamma = Gen.interface_spec sc k0 in
  let* gamma' = Gen.refinement_of sc gamma in
  let* delta = Gen.interface_spec sc k1 in
  pure (gamma', gamma, delta)

(* Theorem 16/18 instances: component specs over disjoint object sets;
   the refinement optionally introduces the reserved object r0. *)
let gen_thm16 ~new_objs =
  let open G in
  let* gamma = Gen.spec sc [ k0 ] in
  let* gamma' = Gen.refinement_of ~new_objs sc gamma in
  let* delta = Gen.spec sc [ k1 ] in
  pure (gamma', gamma, delta)

(* Multi-object component specifications: Γ over two objects, ∆ over a
   third, refinements introducing a reserved fourth. *)
let sc3 = Gen.scenario ~n_comp:3 ~n_env:2 ~n_reserved:1 ()
let ctx3 = Posl_tset.Tset.ctx sc3.Gen.universe

let gen_thm16_multi =
  let open G in
  let* gamma = Gen.spec sc3 [ Oid.v "k0"; Oid.v "k1" ] in
  let* gamma' = Gen.refinement_of ~new_objs:[ Oid.v "r0" ] sc3 gamma in
  let* delta = Gen.spec sc3 [ Oid.v "k2" ] in
  pure (gamma', gamma, delta)

let qsuite =
  [
    Util.qtest ~count:20 "Theorem 16 on multi-object components"
      gen_thm16_multi (fun (gamma', gamma, delta) ->
        not_failed (Theory.theorem16 ctx3 ~depth:3 ~gamma' ~gamma ~delta));
    Util.qtest ~count:20 "Lemma 15 on multi-object components"
      gen_thm16_multi (fun (gamma', gamma, delta) ->
        not_failed (Theory.lemma15 ~gamma' ~gamma ~delta));
    Util.qtest ~count:40 "Theorem 7 (interface compositional refinement)"
      gen_thm7 (fun (gamma', gamma, delta) ->
        not_failed (Theory.theorem7 ctx ~depth ~gamma' ~gamma ~delta));
    Util.qtest ~count:30 "Theorem 16 (with object introduction)"
      (gen_thm16 ~new_objs:[ r0 ]) (fun (gamma', gamma, delta) ->
        not_failed (Theory.theorem16 ctx ~depth ~gamma' ~gamma ~delta));
    Util.qtest ~count:30 "Theorem 18 (no new objects)"
      (gen_thm16 ~new_objs:[]) (fun (gamma', gamma, delta) ->
        not_failed (Theory.theorem18 ctx ~depth ~gamma' ~gamma ~delta));
    Util.qtest ~count:30 "Lemma 15 (alphabet preservation)"
      (gen_thm16 ~new_objs:[ r0 ]) (fun (gamma', gamma, delta) ->
        not_failed (Theory.lemma15 ~gamma' ~gamma ~delta));
    Util.qtest ~count:30 "Property 17 (composability preserved)"
      (gen_thm16 ~new_objs:[]) (fun (gamma', gamma, delta) ->
        not_failed (Theory.property17 ~gamma' ~gamma ~delta));
    Util.qtest ~count:40 "refinement reflexive (Theory wrapper)"
      (Gen.spec sc [ k0 ]) (fun g ->
        Theory.is_pass (Theory.refinement_reflexive ctx ~depth g));
  ]

(* The deterministic negative case: without properness, Theorem 16's
   conclusion fails (mirrors the component_upgrade example). *)
let test_improper_refinement_breaks_thm16 () =
  let m = Mth.v "m0" in
  let mon = Oid.v "e1" in
  (* ∆ talks to the monitor object mon. *)
  let delta =
    Spec.v ~name:"D" ~objs:[ k1 ]
      ~alpha:
        (Eventset.calls ~callers:(Oset.singleton k1)
           ~callees:(Oset.singleton mon) (Mset.singleton m))
      Tset.all
  in
  let gamma =
    Spec.v ~name:"Gm" ~objs:[ k0 ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.of_list [ Oid.v "e0" ])
           ~callees:(Oset.singleton k0) (Mset.singleton m))
      Tset.all
  in
  (* Γ′ absorbs mon: refinement holds, properness w.r.t. ∆ fails. *)
  let gamma' =
    Spec.v ~name:"Gm'" ~objs:[ k0; mon ] ~alpha:(Spec.alpha gamma)
      (Spec.tset gamma)
  in
  Util.check_bool "Γ′ ⊑ Γ" true (Refine.refines ~depth ctx gamma' gamma);
  Util.check_bool "not proper" false
    (Compose.proper ~refined:gamma' ~abstract:gamma ~context:delta);
  match (Compose.compose gamma' delta, Compose.compose gamma delta) with
  | Ok refined_comp, Ok abstract_comp ->
      (* The conclusion of Theorem 16 fails: hiding ate ∆'s events. *)
      Util.check_bool "compositional refinement broken" false
        (Refine.refines ~depth ctx refined_comp abstract_comp)
  | _ -> Alcotest.fail "compositions should exist"

let test_theorem16_on_paper_style_instance () =
  (* The deterministic positive case from the component_upgrade
     example family, kept here as a regression anchor. *)
  let m = Mth.v "m0" in
  let gamma =
    Spec.v ~name:"Ga" ~objs:[ k0 ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.of_list [ Oid.v "e0" ])
           ~callees:(Oset.singleton k0) (Mset.singleton m))
      Tset.all
  in
  let gamma' =
    Spec.v ~name:"Ga'" ~objs:[ k0; r0 ]
      ~alpha:
        (Eventset.union (Spec.alpha gamma)
           (Eventset.calls
              ~callers:(Oset.of_list [ Oid.v "e0" ])
              ~callees:(Oset.singleton r0) (Mset.singleton m)))
      (Tset.restrict (Spec.alpha gamma) (Spec.tset gamma))
  in
  let delta =
    Spec.v ~name:"Da" ~objs:[ k1 ]
      ~alpha:
        (Eventset.calls ~callers:(Oset.singleton k1)
           ~callees:(Oset.of_list [ Oid.v "e1" ])
           (Mset.singleton m))
      Tset.all
  in
  match Theory.theorem16 ctx ~depth ~gamma' ~gamma ~delta with
  | o when Theory.is_pass o -> ()
  | o -> Alcotest.failf "Theorem 16: %a" Theory.pp_outcome o

let test_outcome_combinators () =
  let open Theory in
  let module V = Posl_verdict.Verdict in
  let pass = V.holds ~confidence:V.Exact () in
  let fail = V.refuted [ V.Note "x" ] in
  Util.check_bool "pass both" true (is_pass (both pass pass));
  Util.check_bool "fail wins" true (is_fail (both pass fail));
  Util.check_bool "vacuous beats pass" false
    (is_pass (both (V.vacuous "v") pass));
  Util.check_bool "bounded meets to bounded" true
    ((both (V.holds ~confidence:(V.Bounded 3) ()) pass).V.confidence
    = Some (V.Bounded 3))

let suite =
  [
    Alcotest.test_case "improper refinement breaks Theorem 16" `Quick
      test_improper_refinement_breaks_thm16;
    Alcotest.test_case "Theorem 16 positive anchor" `Quick
      test_theorem16_on_paper_style_instance;
    Alcotest.test_case "outcome combinators" `Quick test_outcome_combinators;
  ]
  @ qsuite
