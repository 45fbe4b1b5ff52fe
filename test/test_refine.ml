(* The refinement relation (Def. 2): examples from the paper, failure
   witnesses, partial-order laws, generated-refinement soundness, and
   agreement between the walk and the exact and bounded procedures of
   the test oracle.  Bit-for-bit differential checks are in
   test_antichain.ml. *)

open Posl_ident
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Oracle = Posl_oracle.Oracle

let ctx = Util.paper_ctx
let depth = 6

let expect_refines name g' g =
  let v = Refine.verdict ~depth ctx g' g in
  if not (Verdict.is_holds v) then
    Alcotest.failf "%s: %s" name (Verdict.to_string v)

let expect_fails name g' g =
  if Verdict.is_holds (Refine.verdict ~depth ctx g' g) then
    Alcotest.failf "%s unexpectedly refines" name

let test_paper_refinements () =
  expect_refines "Read2 ⊑ Read" Ex.read2 Ex.read;
  expect_refines "RW ⊑ Read" Ex.rw Ex.read;
  expect_refines "RW ⊑ Write" Ex.rw Ex.write;
  expect_refines "WriteAcc ⊑ Write" Ex.write_acc Ex.write;
  expect_refines "Client2 ⊑ Client" Ex.client2 Ex.client;
  expect_refines "RW2 ⊑ RW" Ex.rw2 Ex.rw;
  expect_refines "RW2 ⊑ WriteAcc" Ex.rw2 Ex.write_acc

let test_paper_non_refinements () =
  expect_fails "RW ⊑ Read2" Ex.rw Ex.read2;
  expect_fails "Read ⊑ Read2" Ex.read Ex.read2;
  expect_fails "Write ⊑ RW" Ex.write Ex.rw

let test_failure_witnesses () =
  (* Alphabet failure carries the missing events. *)
  (match (Refine.verdict ~depth ctx Ex.read Ex.read2).Verdict.evidence with
  | [ Verdict.Events_missing es ] ->
      Util.check_bool "missing events nonempty" false
        (Posl_sets.Eventset.is_empty es)
  | _ -> Alcotest.fail "expected alphabet failure");
  (* Trace failure carries a genuine counterexample: a trace of Γ′
     whose projection escapes T(Γ). *)
  match (Refine.verdict ~depth ctx Ex.rw Ex.read2).Verdict.evidence with
  | [ Verdict.Trace_escape { trace = h; projected } ] ->
      Util.check_bool "counterexample in T(RW)" true
        (Tset.mem ctx (Spec.tset Ex.rw) h);
      Util.check_bool "projection outside T(Read2)" false
        (Tset.mem ctx (Spec.tset Ex.read2) projected)
  | _ -> Alcotest.fail "expected trace failure"

let test_object_clause () =
  (* A spec of a different object cannot be refined into: clause 1. *)
  let other =
    Spec.v ~name:"other"
      ~objs:[ Oid.v "zz" ]
      ~alpha:
        (Posl_sets.Eventset.calls
           ~callers:(Posl_sets.Oset.cofin_of_list [ Oid.v "zz" ])
           ~callees:(Posl_sets.Oset.singleton (Oid.v "zz"))
           (Posl_sets.Mset.of_list [ Mth.v "R" ]))
      Tset.all
  in
  match (Refine.verdict ~depth ctx Ex.read other).Verdict.evidence with
  | [ Verdict.Objects_missing os ] ->
      Util.check_bool "missing zz" true (Oid.Set.mem (Oid.v "zz") os)
  | _ -> Alcotest.fail "expected object failure"

let test_strategies_agree () =
  (* The product walk, compiled-DFA inclusion and level-wise bounded
     search reach the same verdict on each pair. *)
  let pairs =
    [
      (Ex.read2, Ex.read, true);
      (Ex.rw, Ex.write, true);
      (Ex.rw, Ex.read2, false);
      (Ex.rw2, Ex.write_acc, true);
    ]
  in
  List.iter
    (fun (g', g, expected) ->
      Util.check_bool "exact verdict" expected
        (Verdict.is_holds (Oracle.refine Oracle.Automata ~depth ctx g' g));
      Util.check_bool "bounded verdict" expected
        (Verdict.is_holds (Oracle.refine Oracle.Bounded ~depth ctx g' g));
      Util.check_bool "walk verdict" expected
        (Verdict.is_holds (Refine.verdict ~depth ctx g' g)))
    pairs

(* Random-instance properties over the generator scenario. *)
let sc = Util.sc
let gctx = Util.ctx
let refines g' g = Refine.refines ~depth:4 gctx g' g

let gen_spec = Gen.spec sc [ Oid.v "k0" ]

let gen_chain =
  (* Γ ⊑-chain of length 3, refinements by construction. *)
  let open G in
  let* g = gen_spec in
  let* g' = Gen.refinement_of sc g in
  let* g'' = Gen.refinement_of sc g' in
  pure (g'', g', g)

let qsuite =
  [
    Util.qtest ~count:60 "reflexive" gen_spec (fun g -> refines g g);
    Util.qtest ~count:60 "generated refinements refine" gen_chain
      (fun (_, g', g) -> refines g' g);
    Util.qtest ~count:40 "transitive along generated chains" gen_chain
      (fun (g'', g', g) ->
        (* premises hold by construction *)
        refines g'' g' && refines g'' g);
    Util.qtest ~count:40 "antisymmetric up to trace-set equality" gen_chain
      (fun (_, g', g) ->
        (* If both directions refine, the specs agree on objects,
           alphabets and (sampled) trace sets. *)
        if refines g' g && refines g g' then
          Oid.Set.equal (Spec.objs g) (Spec.objs g')
          && Posl_sets.Eventset.equal (Spec.alpha g) (Spec.alpha g')
        else true);
  ]

let suite =
  [
    Alcotest.test_case "paper refinements hold" `Quick test_paper_refinements;
    Alcotest.test_case "paper non-refinements fail" `Quick
      test_paper_non_refinements;
    Alcotest.test_case "failure witnesses" `Quick test_failure_witnesses;
    Alcotest.test_case "object clause" `Quick test_object_clause;
    Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
  ]
  @ qsuite
