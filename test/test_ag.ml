(* Assumption/guarantee contracts (the OUN interface style of
   Section 9). *)

open Posl_ident
open Posl_sets
module Ag = Posl_ag.Ag
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event
module Counting = Posl_tset.Counting

(* A buffer object b: the environment PUTs items in (input), the buffer
   FWDs them to a sink s (output).  Contract: as long as the
   environment has never exceeded 2 un-forwarded PUTs (assumption), the
   buffer never forwards more than it received (guarantee). *)
let b = Oid.v "b"
let s = Oid.v "s"
let m_put = Mth.v "PUT"
let m_fwd = Mth.v "FWD"
let env = Oset.cofin_of_list [ b; s ]

let puts =
  Eventset.calls ~args:Argsel.none_only ~callers:env ~callees:(Oset.singleton b)
    (Mset.singleton m_put)

let fwds =
  Eventset.calls ~args:Argsel.none_only ~callers:(Oset.singleton b)
    ~callees:(Oset.singleton s) (Mset.singleton m_fwd)

let alpha = Eventset.union puts fwds

let counting_le cls_a cls_b bound =
  (* #a - #b <= bound, as a trace set *)
  let open Counting.Build in
  let bd = create () in
  let a = cls bd cls_a in
  let b' = cls bd cls_b in
  Tset.counting (finish bd (count a -- count b' <=. bound))

(* Assumption over inputs: at most [n] PUTs ever (a crude flow cap that
   only mentions input events). *)
let assume_at_most n = counting_le puts Eventset.empty n

(* Guarantee: never forward more than was put. *)
let guarantee_no_overrun = counting_le fwds puts 0

let contract n =
  Ag.v ~assumption:(assume_at_most n) ~guarantee:guarantee_no_overrun
    ~inputs:puts ~outputs:fwds

let universe =
  Universe.make
    ~objects:[ b; s; Oid.v "u1"; Oid.v "u2" ]
    ~methods:[ m_put; m_fwd ] ~values:[]

let ctx = Tset.ctx universe

let spec_of n = Ag.spec ctx ~name:(Printf.sprintf "Buf%d" n) ~objs:[ b ] ~alpha (contract n)

let put x = Event.make ~caller:(Oid.v x) ~callee:b m_put
let fwd = Event.make ~caller:b ~callee:s m_fwd

let test_guarantee_enforced_under_assumption () =
  let sp = spec_of 2 in
  let mem h = Spec.mem ctx sp (Trace.of_list h) in
  Util.check_bool "put then forward" true (mem [ put "u1"; fwd ]);
  Util.check_bool "forward without put rejected" false (mem [ fwd ]);
  Util.check_bool "two puts two forwards" true
    (mem [ put "u1"; put "u2"; fwd; fwd ])

let test_broken_assumption_releases_object () =
  let sp = spec_of 2 in
  let mem h = Spec.mem ctx sp (Trace.of_list h) in
  (* Three puts break the assumption (cap 2); afterwards the object is
     off the hook — even an overrun of forwards is admitted. *)
  Util.check_bool "assumption broken, overrun tolerated" true
    (mem [ put "u1"; put "u2"; put "u1"; fwd; fwd; fwd; fwd ]);
  (* But an overrun before the assumption broke is still a violation. *)
  Util.check_bool "early overrun still rejected" false
    (mem [ put "u1"; fwd; fwd ])

let test_io_split () =
  let inputs, outputs = Ag.io_of_objs [ b ] in
  Util.check_bool "PUT is input" true (Eventset.mem (put "u1") inputs);
  Util.check_bool "FWD is output" true (Eventset.mem fwd outputs);
  Util.check_bool "FWD not input" false (Eventset.mem fwd inputs)

let test_refinement_rule () =
  (* Weaker assumption (larger cap) with the same guarantee refines. *)
  let abstract = contract 2 and refined = contract 4 in
  let alphabet = Array.of_list (Eventset.sample universe alpha) in
  (match Ag.refinement_rule ctx ~depth:5 ~alphabet ~refined ~abstract with
  | Ag.Rule_applies _ -> ()
  | o -> Alcotest.failf "rule should apply: %a" Ag.pp_rule_outcome o);
  (* ... and the packaged specifications indeed refine per Def. 2. *)
  (let v =
     Refine.verdict ~depth:5 ctx (spec_of 4) (spec_of 2)
   in
   if not (Posl_verdict.Verdict.is_holds v) then
     Alcotest.failf "Buf4 ⊑ Buf2: %s" (Posl_verdict.Verdict.to_string v));
  (* The rule's premise check catches the converse direction. *)
  match Ag.refinement_rule ctx ~depth:5 ~alphabet ~refined:abstract ~abstract:refined with
  | Ag.Premise_fails `Assumption_not_weaker -> ()
  | o -> Alcotest.failf "expected premise failure: %a" Ag.pp_rule_outcome o

(* A contract's trace set is a predicate closing over its context,
   whose tables grow as the context answers questions.  The context
   must still find that trace set's node afterwards: one node per trace
   set, so its successor rows are shared by every later question. *)
let test_node_survives_context_growth () =
  let ctx = Tset.ctx universe in
  let t = Ag.to_tset ctx (contract 2) in
  let n = Tset.node ctx t in
  let before = Tset.intern_counts ctx in
  ignore (Tset.event_id ctx (Event.make ~caller:(Oid.v "u1") ~callee:b m_put));
  Option.iter (fun st -> ignore (Tset.intern_state ctx st)) (Tset.start n);
  Util.check_bool "the context grew" true (Tset.intern_counts ctx <> before);
  Util.check_bool "the same node" true (Tset.node ctx t == n)

let suite =
  [
    Alcotest.test_case "guarantee enforced under assumption" `Quick
      test_guarantee_enforced_under_assumption;
    Alcotest.test_case "broken assumption releases the object" `Quick
      test_broken_assumption_releases_object;
    Alcotest.test_case "input/output split" `Quick test_io_split;
    Alcotest.test_case "A/G refinement rule" `Quick test_refinement_rule;
    Alcotest.test_case "a contract keeps its node as its context grows"
      `Quick test_node_survives_context_growth;
  ]
