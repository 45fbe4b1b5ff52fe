(* The liveness extension (the paper's future work, Section 9):
   deadlock freedom, response obligations, live refinement, and the
   compositional deadlock-preservation analysis that makes Example 5's
   phenomenon checkable. *)

open Posl_sets
module Live = Posl_live.Live
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper

let ctx = Util.paper_ctx
let depth = 6

(* Obligation on the write protocol: every open OW is answerable by a
   CW. *)
let write_progress =
  Live.obligation ~name:"write-bracket"
    ~trigger:
      (Eventset.calls ~callers:Oset.full ~callees:Oset.full
         (Mset.singleton Ex.m_ow))
    ~response:
      (Eventset.calls ~callers:Oset.full ~callees:Oset.full
         (Mset.singleton Ex.m_cw))

let test_write_is_live () =
  let lspec = Live.v ~obligations:[ write_progress ] Ex.write in
  let v = Live.verdict ~depth ctx lspec in
  if not (Verdict.is_holds v) then
    Alcotest.failf "Write should be live: %s" (Verdict.to_string v)

let test_obligation_violation_detected () =
  (* A spec where OW can never be answered: only OW events exist. *)
  let alpha =
    Eventset.calls
      ~callers:(Oset.cofin_of_list [ Ex.o ])
      ~callees:(Oset.singleton Ex.o)
      (Mset.singleton Ex.m_ow)
  in
  let stuck = Spec.v ~name:"StuckOW" ~objs:[ Ex.o ] ~alpha Tset.all in
  let lspec =
    Live.v ~deadlock_free:false ~obligations:[ write_progress ] stuck
  in
  match (Live.verdict ~depth ctx lspec).Verdict.evidence with
  | [ Verdict.Unanswerable { obligation; trace = h } ] ->
      Alcotest.(check string) "right obligation" "write-bracket" obligation;
      Util.check_bool "witness nonempty" false (Trace.is_empty h)
  | [ Verdict.Deadlock _ ] ->
      Alcotest.fail "expected unanswerable, got deadlock"
  | _ -> Alcotest.fail "expected an obligation violation"

(* Refutations are the walk's: the lexicographically-least shortest
   witness.  In Write an OW then a W leaves a W without its OK; the
   least such trace is the fixed client's, not a fresh object's. *)
let test_witness_is_lex_least () =
  let calls m =
    Eventset.calls ~callers:Oset.full ~callees:Oset.full (Mset.singleton m)
  in
  let w_ok =
    Live.obligation ~name:"W->OK" ~trigger:(calls Ex.m_w)
      ~response:(calls Ex.m_ok)
  in
  let lspec = Live.v ~deadlock_free:false ~obligations:[ w_ok ] Ex.write in
  match (Live.verdict ~depth ctx lspec).Verdict.evidence with
  | [ Verdict.Unanswerable { trace = h; _ } ] ->
      Alcotest.check Util.trace "lex-least shortest witness"
        (Util.tr
           [
             Util.ev "c" "o" "OW";
             Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "o" "W";
           ])
        h
  | _ -> Alcotest.fail "expected W->OK to be unanswerable in Write"

let test_deadlock_detected () =
  let comp = Compose.interface Ex.client2 Ex.write_acc in
  let lspec = Live.v comp in
  match (Live.verdict ~depth ctx lspec).Verdict.evidence with
  | [ Verdict.Deadlock h ] ->
      Util.check_bool "deadlock at ε" true (Trace.is_empty h)
  | [ Verdict.Unanswerable _ ] -> Alcotest.fail "expected a deadlock"
  | _ -> Alcotest.fail "Client2‖WriteAcc should deadlock"

let test_live_refinement_rejects_client2 () =
  (* Safety refinement accepts Client2 ⊑ Client (Example 5)... *)
  Util.check_bool "safety accepts" true
    (Posl_core.Refine.refines ~depth ctx Ex.client2 Ex.client);
  (* ... but live refinement, with an obligation that every W is
     answerable by an OK confirmation, rejects it: after W OK OW, the
     client must emit W before the next OK, and for WriteAcc-composed
     behaviour this breaks — here we check the simpler, spec-local
     obligation that the OW Client2 adds is itself answerable, which
     fails because Client2 has no CW at all. *)
  let ow_answerable =
    Live.obligation ~name:"ow-answerable"
      ~trigger:
        (Eventset.calls ~callers:Oset.full ~callees:Oset.full
           (Mset.singleton Ex.m_ow))
      ~response:
        (Eventset.calls ~callers:Oset.full ~callees:Oset.full
           (Mset.singleton Ex.m_cw))
  in
  let abstract = Live.v ~deadlock_free:false Ex.client in
  let refined =
    Live.v ~deadlock_free:false ~obligations:[ ow_answerable ] Ex.client2
  in
  let v = Live.refine ~depth ctx refined abstract in
  if Verdict.is_holds v then
    Alcotest.fail "live refinement should reject Client2"
  else if
    not
      (List.exists
         (function Verdict.Unanswerable _ -> true | _ -> false)
         v.Verdict.evidence)
  then Alcotest.failf "wrong failure: %s" (Verdict.to_string v)

let test_live_refinement_accepts_read2 () =
  let abstract = Live.v ~deadlock_free:false Ex.read in
  let refined = Live.v ~deadlock_free:false Ex.read2 in
  let v = Live.refine ~depth ctx refined abstract in
  if not (Verdict.is_holds v) then
    Alcotest.failf "Read2 should live-refine Read: %s" (Verdict.to_string v)

let test_compositional_deadlock_preservation () =
  (* Example 5, as an analysis: Client → Client2 does NOT preserve
     deadlock freedom of the composition with WriteAcc. *)
  (match
     Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.client2
       ~gamma:Ex.client ~delta:Ex.write_acc
   with
  | Error h -> Util.check_bool "fresh deadlock at ε" true (Trace.is_empty h)
  | Ok () -> Alcotest.fail "expected the Example 5 deadlock");
  (* Example 6's refinement is harmless: WriteAcc → RW2 preserves the
     composition's deadlock freedom with Client. *)
  match
    Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.rw2
      ~gamma:Ex.write_acc ~delta:Ex.client
  with
  | Ok () -> ()
  | Error h -> Alcotest.failf "unexpected deadlock after %a" Trace.pp h

let suite =
  [
    Alcotest.test_case "obligation witness is the lex-least shortest" `Quick
      test_witness_is_lex_least;
    Alcotest.test_case "Write satisfies its bracket obligation" `Quick
      test_write_is_live;
    Alcotest.test_case "unanswerable obligation detected" `Quick
      test_obligation_violation_detected;
    Alcotest.test_case "deadlock detected (Example 5)" `Quick
      test_deadlock_detected;
    Alcotest.test_case "live refinement rejects Client2" `Quick
      test_live_refinement_rejects_client2;
    Alcotest.test_case "live refinement accepts Read2 ⊑ Read" `Quick
      test_live_refinement_accepts_read2;
    Alcotest.test_case "compositional deadlock preservation" `Quick
      test_compositional_deadlock_preservation;
  ]
