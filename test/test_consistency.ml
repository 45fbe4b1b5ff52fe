(* Non-trivial consistency (Section 7 / Boiten et al.). *)

open Posl_ident
open Posl_sets
module Consistency = Posl_core.Consistency
module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper

let ctx = Util.paper_ctx
let depth = 4

let test_viewpoints_consistent () =
  (* The paper's viewpoints of o are non-trivially consistent: their
     merge admits real behaviour. *)
  (let v = Consistency.verdict ctx Ex.write Ex.read2 in
   match (Verdict.is_holds v, Verdict.witness_traces v) with
   | true, h :: _ ->
       Util.check_bool "witness non-empty" false (Posl_trace.Trace.is_empty h)
   | _ -> Alcotest.failf "Write/Read2: %s" (Verdict.to_string v));
  let v = Consistency.verdict ctx Ex.read Ex.write in
  if not (Verdict.is_holds v) then
    Alcotest.failf "Read/Write: %s" (Verdict.to_string v)

let mk_order name first second =
  (* prs (<x,o,first> <x,o,second>)* from the fixed client c. *)
  let atom m =
    Regex.atom
      (Epat.make ~caller:(Epat.Const Ex.c) ~callee:(Epat.Const Ex.o)
         (Mset.singleton m))
  in
  Spec.v ~name ~objs:[ Ex.o ]
    ~alpha:
      (Eventset.calls
         ~callers:(Oset.cofin_of_list [ Ex.o ])
         ~callees:(Oset.singleton Ex.o)
         (Mset.of_list [ Ex.m_ow; Ex.m_cw ]))
    (Tset.prs (Regex.star (Regex.seq (atom first) (atom second))))

let test_contradicting_specs_trivial () =
  (* One viewpoint insists OW before CW, the other CW before OW: the
     weakest common refinement admits only ε. *)
  let a = mk_order "OwFirst" Ex.m_ow Ex.m_cw in
  let b = mk_order "CwFirst" Ex.m_cw Ex.m_ow in
  let v = Consistency.verdict ctx a b in
  if not (Verdict.is_refuted v) then
    Alcotest.failf "expected trivial consistency: %s" (Verdict.to_string v);
  Util.check_bool "read from the successor rows" true
    (v.Verdict.provenance.procedure = Some Verdict.Automata)

let test_not_composable_reported () =
  (* A spec peeking into another component's internals: consistency is
     not externally determinable (the paper's proviso). *)
  let nosy =
    Spec.v ~name:"nosy"
      ~objs:[ Oid.v "spy" ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.singleton (Oid.v "spy"))
           ~callees:(Oset.singleton (Oid.v "s1"))
           (Mset.singleton (Mth.v "m")))
      Tset.all
  in
  let two =
    Spec.v ~name:"two"
      ~objs:[ Oid.v "s1"; Oid.v "s2"; Oid.v "spy" ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.cofin_of_list [ Oid.v "s1"; Oid.v "s2"; Oid.v "spy" ])
           ~callees:(Oset.singleton (Oid.v "s2"))
           (Mset.singleton (Mth.v "m")))
      Tset.all
  in
  let v = Consistency.verdict ctx nosy two in
  if not (Verdict.is_vacuous v) then
    Alcotest.failf "expected not-composable: %s" (Verdict.to_string v);
  Util.check_bool "decided symbolically" true
    (v.Verdict.provenance.procedure = Some Verdict.Symbolic)

let test_bound_property () =
  (* RW refines both Read and Write, so it refines their composition. *)
  match
    Consistency.common_refinement_bound ~depth ctx ~delta:Ex.rw Ex.read Ex.write
  with
  | Some v when Verdict.is_holds v -> ()
  | Some v ->
      Alcotest.failf "RW should refine Read‖Write: %s" (Verdict.to_string v)
  | None -> Alcotest.fail "Read and Write should be composable"

let suite =
  [
    Alcotest.test_case "paper viewpoints non-trivially consistent" `Quick
      test_viewpoints_consistent;
    Alcotest.test_case "contradicting orders: only trivial" `Quick
      test_contradicting_specs_trivial;
    Alcotest.test_case "non-composable reported" `Quick
      test_not_composable_reported;
    Alcotest.test_case "weakest common refinement bounds" `Quick
      test_bound_property;
  ]
