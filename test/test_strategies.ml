(* Decision procedures of clause 3: degradation to the depth cut on
   non-finitary trace sets, verdict labelling, canonical witnesses. *)

open Posl_sets
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper
module Oracle = Posl_oracle.Oracle

let ctx = Util.paper_ctx

(* A spec whose monitor is not finitary (Pointwise carries the whole
   prefix). *)
let opaque =
  Spec.v ~name:"Opaque" ~objs:[ Ex.o ]
    ~alpha:(Spec.alpha Ex.read)
    (Tset.pointwise "at-most-3" (fun h -> Trace.length h <= 3))

let test_auto_degrades_to_bounded () =
  (* The walk must keep the depth cut and label the verdict
     accordingly...  unless exploration exhausts the product state
     space first, in which case Exact is correct: here the Pointwise
     monitor dies after length 3, so the space is finite and the
     verdict exact. *)
  let v = Refine.verdict ~depth:6 ctx opaque Ex.read in
  if not (Verdict.is_holds v) then
    Alcotest.failf "Opaque ⊑ Read: %s" (Verdict.to_string v)

let test_bounded_only_labels_depth () =
  (* An infinite-state lhs with behaviour that never dies: the walk
     cannot exhaust it, so the verdict carries the depth.  The rhs is
     unrestricted but not syntactically [All], which would settle the
     clause without exploring. *)
  let growing =
    Spec.v ~name:"Growing" ~objs:[ Ex.o ]
      ~alpha:(Spec.alpha Ex.read)
      (Tset.pointwise "all" (fun _ -> true))
  in
  let anything =
    Spec.v ~name:"Anything" ~objs:[ Ex.o ]
      ~alpha:(Spec.alpha Ex.read)
      (Tset.restrict Eventset.full Tset.all)
  in
  let v = Refine.verdict ~depth:3 ctx growing anything in
  if not (Verdict.is_holds v) then
    Alcotest.failf "Growing ⊑ Anything: %s" (Verdict.to_string v)
  else
    match v.Verdict.confidence with
    | Some (Bmc.Bounded 3) -> ()
    | Some c -> Alcotest.failf "expected bounded(3), got %a" Bmc.pp_confidence c
    | None -> Alcotest.fail "expected a confidence"

(* Deadlock is a depth-cut search whatever the walk finds: even when
   the frontier empties early, the verdict is bounded by the depth. *)
let test_deadlock_stays_bounded () =
  let v =
    Posl_engine.Job.run ctx ~depth:20
      (Posl_engine.Job.deadlock ~left:Ex.client ~right:Ex.write_acc)
  in
  Util.check_bool "holds" true (Verdict.is_holds v);
  match (v.Verdict.confidence, v.Verdict.provenance.Verdict.procedure) with
  | Some (Bmc.Bounded 20), Some Verdict.Bounded_search -> ()
  | _ -> Alcotest.failf "Client ‖ WriteAcc: %s" (Verdict.to_string v)

(* Equality has no exact route for a non-finitary monitor: its
   refutation is a bounded search at the depth, where refinement, whose
   walk refutes the same way, reports the automata-theoretic label. *)
let test_equality_falls_back_on_opaque () =
  let procedure v = v.Verdict.provenance.Verdict.procedure in
  let eq = Theory.tset_equal ctx ~depth:6 opaque Ex.read in
  (match (eq.Verdict.evidence, procedure eq) with
  | [ Verdict.Equality_witness { trace; side = `Right_only; _ } ],
    Some Verdict.Bounded_search ->
      Util.check_int "witness length" 4 (Trace.length trace)
  | _ -> Alcotest.failf "T(Opaque) = T(Read): %s" (Verdict.to_string eq));
  let re = Refine.verdict ~depth:6 ctx Ex.read opaque in
  match (Verdict.is_refuted re, procedure re) with
  | true, Some Verdict.Automata -> ()
  | _ -> Alcotest.failf "Read ⊑ Opaque: %s" (Verdict.to_string re)

let test_with_name () =
  let s = Spec.with_name "Renamed" Ex.read in
  Alcotest.(check string) "renamed" "Renamed" (Spec.name s);
  Util.check_bool "alphabet preserved" true
    (Eventset.equal (Spec.alpha s) (Spec.alpha Ex.read))

let test_environment_of_client () =
  (* Client's communication environment excludes c itself but is
     otherwise the whole (infinite) object universe. *)
  let env = Spec.environment Ex.client in
  Util.check_bool "c not in env" false (Oset.mem Ex.c env);
  Util.check_bool "o in env" true (Oset.mem Ex.o env);
  Util.check_bool "infinite" false (Oset.is_finite env)

let test_counterexample_is_shortest () =
  (* The compiled-DFA oracle returns a shortest escaping trace: for
     RW ⋢ Read2 that is an OW followed by a read (length 2). *)
  let check v =
    match v.Verdict.evidence with
    | [ Verdict.Trace_escape { trace = h; _ } ] ->
        Util.check_int "length 2" 2 (Trace.length h)
    | _ -> Alcotest.failf "RW ⊑ Read2: %s" (Verdict.to_string v)
  in
  check (Oracle.refine Oracle.Automata ctx Ex.rw Ex.read2);
  (* The walk promises the same canonical witness. *)
  check (Refine.verdict ~depth:6 ctx Ex.rw Ex.read2)

let suite =
  [
    Alcotest.test_case "auto strategy on opaque specs" `Quick
      test_auto_degrades_to_bounded;
    Alcotest.test_case "bounded verdicts carry the depth" `Quick
      test_bounded_only_labels_depth;
    Alcotest.test_case "deadlock verdicts stay bounded on exhaustion" `Quick
      test_deadlock_stays_bounded;
    Alcotest.test_case "equality falls back on non-finitary monitors" `Quick
      test_equality_falls_back_on_opaque;
    Alcotest.test_case "with_name" `Quick test_with_name;
    Alcotest.test_case "environment of Client" `Quick
      test_environment_of_client;
    Alcotest.test_case "counterexamples are shortest" `Quick
      test_counterexample_is_shortest;
  ]
