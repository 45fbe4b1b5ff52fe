(* Trace sets: the unified monitor semantics against the denotational
   reference, prefix closure by construction, and the oracle's exact DFA
   compilation of monitors. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Dfa = Posl_automata.Dfa
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper

let sc = Util.sc
let ctx = Util.ctx
let probes = Eventset.sample sc.Gen.universe Eventset.full
let gen_tset = Gen.tset_within sc probes
let gen_trace = Gen.trace ~max_len:5 sc

let word_index alphabet e =
  let rec find i =
    if i >= Array.length alphabet then Alcotest.fail "event outside alphabet"
    else if Posl_trace.Event.equal alphabet.(i) e then i
    else find (i + 1)
  in
  find 0

let qsuite =
  [
    Util.qtest ~count:300 "monitor agrees with denotational semantics"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        Tset.mem ctx t h = Tset.mem_naive ctx t h);
    Util.qtest ~count:200 "membership is prefix closed"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        if Tset.mem ctx t h then
          List.for_all (fun p -> Tset.mem ctx t p) (Trace.prefixes h)
        else true);
    Util.qtest ~count:100 "compile agrees with membership"
      (G.pair gen_tset gen_trace) (fun (t, h) ->
        let alphabet = Array.of_list probes in
        match Posl_oracle.Oracle.compile ctx alphabet t with
        | None -> QCheck2.assume_fail ()
        | Some dfa ->
            let word = List.map (word_index alphabet) (Trace.to_list h) in
            Dfa.accepts dfa word = Tset.mem ctx t h);
    Util.qtest ~count:200 "conj is intersection" (G.pair (G.pair gen_tset gen_tset) gen_trace)
      (fun ((t1, t2), h) ->
        Tset.mem ctx (Tset.conj [ t1; t2 ]) h
        = (Tset.mem ctx t1 h && Tset.mem ctx t2 h));
    Util.qtest ~count:200 "restrict is projection membership"
      (G.triple gen_tset (Gen.eventset sc) gen_trace) (fun (t, es, h) ->
        Tset.mem ctx (Tset.restrict es t) h
        = Tset.mem ctx t (Eventset.restrict_trace es h));
    Util.qtest ~count:200 "All accepts everything" gen_trace (fun h ->
        Tset.mem ctx Tset.all h);
  ]

(* The Forall_obj constructor on the paper's Read2 semantics. *)
let test_forall_obj () =
  let ctx = Util.paper_ctx in
  let t = Posl_core.Spec.tset Ex.read2 in
  let or_ x = Util.ev x "o" "OR"
  and cr x = Util.ev x "o" "CR"
  and r x = Util.ev ~arg:(Posl_ident.Value.v "d1") x "o" "R" in
  let mem h = Tset.mem ctx t (Util.tr h) in
  Util.check_bool "empty" true (mem []);
  Util.check_bool "bracketed read" true (mem [ or_ "c"; r "c"; cr "c" ]);
  Util.check_bool "unbracketed read rejected" false (mem [ r "c" ]);
  Util.check_bool "two concurrent readers fine" true
    (mem [ or_ "c"; or_ "obj1"; r "obj1"; r "c"; cr "c"; cr "obj1" ]);
  Util.check_bool "reader reads for someone else rejected" false
    (mem [ or_ "c"; r "obj1" ])

(* The Product constructor: observable behaviour of Client‖WriteAcc is
   exactly OK* (Example 4). *)
let test_product_observable () =
  let ctx = Util.paper_ctx in
  let comp = Posl_core.Compose.interface Ex.client Ex.write_acc in
  let t = Posl_core.Spec.tset comp in
  let ok = Util.ev "c" "om" "OK" in
  Util.check_bool "ε observable" true (Tset.mem ctx t Trace.empty);
  Util.check_bool "OK observable" true (Tset.mem ctx t (Util.tr [ ok ]));
  Util.check_bool "OK OK observable" true (Tset.mem ctx t (Util.tr [ ok; ok ]));
  (* A W call to a third object never happens: the client only writes to
     o (hidden in the composition). *)
  Util.check_bool "stray W not observable" false
    (Tset.mem ctx t (Util.tr [ Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "obj1" "W" ]))

let test_closure_overflow_guard () =
  (* A tiny cap must trip the safety valve on a composition that needs
     internal closure. *)
  let tight = Tset.with_closure_cap 0 Util.paper_ctx in
  let comp = Posl_core.Compose.interface Ex.client Ex.write_acc in
  let ok = Util.ev "c" "om" "OK" in
  match Tset.mem tight (Posl_core.Spec.tset comp) (Util.tr [ ok ]) with
  | exception Tset.Closure_overflow _ -> ()
  | _ -> Alcotest.fail "expected Closure_overflow"

let test_pointwise_largest_prefix_closed () =
  (* Pointwise with a non-monotone predicate: membership requires all
     prefixes to satisfy it (largest prefix-closed subset). *)
  let p h = Trace.length h <> 1 in
  let t = Tset.pointwise "len-not-1" p in
  Util.check_bool "ε in" true (Tset.mem ctx t Trace.empty);
  Util.check_bool "length 1 out" false
    (Tset.mem ctx t (Util.tr [ Util.ev "a" "b" "m" ]));
  (* length 2 satisfies p but its prefix of length 1 does not *)
  Util.check_bool "length 2 out too" false
    (Tset.mem ctx t (Util.tr [ Util.ev "a" "b" "m"; Util.ev "a" "b" "m" ]))

let test_compile_pointwise_unbounded () =
  (* Pointwise monitors carry the whole prefix: unbounded state space,
     so compilation must give up (None) rather than loop. *)
  let t = Tset.pointwise "accept-all" (fun _ -> true) in
  let alphabet = Array.of_list probes in
  match Posl_oracle.Oracle.compile ~max_states:50 ctx alphabet t with
  | None -> ()
  | Some _ -> Alcotest.fail "expected compilation to give up"

let test_outside_universe_event_rejected_or_loud () =
  (* An event whose identifiers are outside the context universe:
     either it matches no atom of the compiled expression (clean
     rejection) or the library must fail loudly rather than give a
     wrong verdict. *)
  let ctx = Util.paper_ctx in
  let t = Posl_core.Spec.tset Ex.write in
  let stranger = Util.ev "zz_unknown" "o" "OW" in
  (match Tset.mem ctx t (Util.tr [ stranger ]) with
  | exception Invalid_argument _ -> () (* loud: universe too small *)
  | false -> () (* clean rejection *)
  | true -> Alcotest.fail "an unsampled caller cannot be accepted")

let suite =
  [
    Alcotest.test_case "forall-obj (Read2 semantics)" `Quick test_forall_obj;
    Alcotest.test_case "compile gives up on unbounded monitors" `Quick
      test_compile_pointwise_unbounded;
    Alcotest.test_case "events outside the universe" `Quick
      test_outside_universe_event_rejected_or_loud;
    Alcotest.test_case "product observable behaviour" `Quick
      test_product_observable;
    Alcotest.test_case "closure overflow guard" `Quick
      test_closure_overflow_guard;
    Alcotest.test_case "pointwise largest prefix-closed subset" `Quick
      test_pointwise_largest_prefix_closed;
  ]
  @ qsuite
