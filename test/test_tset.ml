(* Trace sets: the unified monitor semantics against the denotational
   reference, prefix closure by construction, and the oracle's exact DFA
   compilation of monitors. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event
module Epat = Posl_regex.Epat
module Regex = Posl_regex.Regex
module Bmc = Posl_bmc.Bmc
module Dfa = Posl_automata.Dfa
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper

let sc = Util.sc
let ctx = Util.ctx
let probes = Eventset.sample sc.Gen.universe Eventset.full

(* ∀x ∈ s . prs R(x): R is a generated pattern whose atoms each put
   the bound object x at the caller or at the callee of an alphabet
   event.  The sort leaves out every object R names, so the body is
   uniform over its members, as [Tset.Forall_obj] requires. *)
let gen_forall =
  let open G in
  let atom =
    let* e = G.oneofl probes in
    let* at_caller = G.bool in
    let caller, callee =
      if at_caller then (Epat.Var "x", Epat.Const (Event.callee e))
      else (Epat.Const (Event.caller e), Epat.Var "x")
    in
    let args =
      match Event.arg e with
      | None -> Argsel.none_only
      | Some _ -> Argsel.any_value
    in
    pure
      (Regex.atom (Epat.make ~args ~caller ~callee (Mset.singleton (Event.mth e))))
  in
  let* pattern =
    fix
      (fun self depth ->
        if depth = 0 then atom
        else
          frequency
            [
              (2, atom);
              (2, map2 Regex.seq (self (depth - 1)) (self (depth - 1)));
              (1, map2 Regex.alt (self (depth - 1)) (self (depth - 1)));
              (1, map Regex.star (self (depth - 1)));
            ])
      2
  in
  let pattern = Regex.star pattern in
  let named, _, _ = Regex.mentioned pattern in
  pure
    (Tset.forall_obj
       (Oset.cofin_of_list (Posl_ident.Oid.Set.elements named))
       (fun o -> Tset.prs (Regex.subst "x" o pattern)))

(* [Gen.tset_within]'s constructors, with [Restrict] and [Forall_obj]
   among them, so the differentials below reach every kind of node. *)
let gen_tset =
  let open G in
  let base = Gen.tset_within sc probes in
  fix
    (fun self depth ->
      let leaves = [ (3, base); (2, gen_forall) ] in
      if depth = 0 then frequency leaves
      else
        frequency
          (leaves
          @ [
              (2, map2 Tset.restrict (Gen.eventset sc) (self (depth - 1)));
              ( 1,
                map2 (fun a b -> Tset.conj [ a; b ]) (self (depth - 1))
                  (self (depth - 1)) );
            ]))
    2

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
  let tight = Tset.ctx ~closure_cap:0 Util.paper_universe in
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
     wrong verdict — and keep doing so once the monitor's successor
     rows are filled, rather than remember the event as rejected. *)
  let ctx = Util.paper_ctx in
  let alphabet =
    Posl_core.Spec.concrete_alphabet (Tset.universe ctx) Ex.write
  in
  let outcome t stranger =
    match Tset.mem ctx t (Util.tr [ stranger ]) with
    | exception Invalid_argument _ -> `Loud (* universe too small *)
    | false -> `Rejected (* clean rejection *)
    | true -> Alcotest.fail "an unsampled identifier cannot be accepted"
  in
  let twice t stranger =
    let first = outcome t stranger in
    ignore (Bmc.count_states ctx ~alphabet ~depth:4 t);
    Util.check_bool "the same outcome once rows are filled" true
      (outcome t stranger = first);
    first
  in
  (* Write expands its binder over the universe, so a stranger caller
     matches none of its atoms ... *)
  ignore
    (twice (Posl_core.Spec.tset Ex.write) (Util.ev "zz_unknown" "o" "OW"));
  (* ... while "anything c calls" keeps its callee symbolic, so a
     stranger callee matches an atom the universe sample never saw. *)
  let from_c =
    Tset.prs
      (Regex.star
         (Regex.atom
            (Epat.make ~args:Argsel.full ~caller:(Epat.Const Ex.c)
               ~callee:(Epat.In Oset.full) Mset.full)))
  in
  Util.check_bool "a stranger inside a symbolic atom is loud" true
    (twice from_c (Util.ev "c" "zz_unknown" "OW") = `Loud)

(* --- soak: a re-parsed file leaves nothing behind --------------------- *)

(* One context answering a file that is parsed again and again, as a
   watcher's context is: each cycle parses paper.oun afresh and refines
   all 56 ordered pairs of the new parse, so the previous parse's trace
   sets become unreachable and their nodes (successor rows, classifiers,
   forall children) must go with them.  After a full major collection
   the live heap at the last cycle stays within 1.5x its value at cycle
   20; a registry that kept every parse's nodes grows about 4x over the
   same cycles. *)
let test_soak_reparse () =
  let parse = Util.reparse "paper.oun" in
  let first = parse () in
  Util.check_int "8 specs, so 56 ordered pairs" 8 (List.length first);
  let ctx = Tset.ctx (Posl_core.Spec.adequate_universe first) in
  let cycle () =
    let specs = parse () in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a != b then ignore (Posl_core.Refine.verdict ctx a b))
          specs)
      specs
  in
  (* The context is read after each collection, so it is live through
     it: its tables are part of what is measured. *)
  let measure () =
    Gc.full_major ();
    let words = (Gc.stat ()).Gc.live_words in
    (words, Tset.intern_counts ctx)
  in
  let cycles = 100 and early = 20 in
  let at_early = ref (0, (0, 0, 0)) in
  for i = 1 to cycles do
    cycle ();
    if i = early then at_early := measure ()
  done;
  let early_words, early_counts = !at_early in
  let last_words, last_counts = measure () in
  Util.check_bool "a re-parse interns no new state, composite or event" true
    (early_counts = last_counts);
  if 2 * last_words > 3 * early_words then
    Alcotest.failf "live heap grew from %d words at cycle %d to %d at cycle %d"
      early_words early last_words cycles

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
    Alcotest.test_case "soak: re-parsed specs leave no nodes behind" `Quick
      test_soak_reparse;
  ]
  @ qsuite
