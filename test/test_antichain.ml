(* Differential tests for the product walk: agreement with the
   compiled-DFA oracle (refinement and trace-set equality) and with the
   level-wise depth-cut oracle, on the paper corpus (bit-for-bit
   verdicts, witnesses included) and on random specifications with
   alphabet expansion; and the interning layer's transparency (interned
   ids never change the reference semantics' answers). *)

open Posl_ident
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Verdict = Posl_verdict.Verdict
module Ex = Posl_core.Examples_paper
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Oracle = Posl_oracle.Oracle

let ctx = Util.paper_ctx
let depth = 6

(* Every ordered pair over the paper cast — the 56-pair corpus the
   performance campaigns measure. *)
let corpus =
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g -> if g' == g then None else Some (g', g))
        Ex.all_specs)
    Ex.all_specs

let expect_equal what walk oracle =
  if not (Verdict.equal walk oracle) then
    Alcotest.failf "%s: walk %s vs oracle %s" what (Verdict.to_string walk)
      (Verdict.to_string oracle)

(* The walk against the pre-walk Auto route: exact compiled-DFA
   inclusion when the monitors compile, level-wise bounded exploration
   otherwise — procedure labels and witnesses included. *)
let test_corpus_verdicts_agree () =
  Util.check_int "corpus size" 56 (List.length corpus);
  List.iter
    (fun (g', g) ->
      expect_equal
        (Printf.sprintf "%s ⊑ %s" (Spec.name g') (Spec.name g))
        (Refine.verdict ~depth ctx g' g)
        (Oracle.refine Oracle.Legacy_auto ~depth ctx g' g))
    corpus

(* Trace-set equality: complete walks both ways against compiled DFAs
   both ways, falling back to the same depth-cut walk. *)
let test_corpus_equality_agrees () =
  List.iter
    (fun (a, b) ->
      expect_equal
        (Printf.sprintf "T(%s) = T(%s)" (Spec.name a) (Spec.name b))
        (Theory.tset_equal ctx ~depth a b)
        (Oracle.tset_equal ctx ~depth a b))
    corpus

(* With [~complete:false] the walk answers the question the level-wise
   oracle answers: same depth cut, same canonical lex-least witnesses.
   On non-[Product] right-hand sides the two are step-for-step
   identical; on [Product] ones the walk may exhaust a pruned frontier
   earlier, so [Exact] where the oracle still reports the cut — never
   the reverse, and refutations always coincide. *)
let cut_agrees ctx ~alphabet ~depth ~lhs ~proj ~rhs =
  match
    ( Oracle.inclusion_levelwise ctx ~alphabet ~depth ~lhs ~proj ~rhs,
      Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet ~depth ~lhs
        ~proj ~rhs )
  with
  | Bmc.Refuted h1, Bmc.Refuted h2 ->
      if Trace.equal h1 h2 then Ok ()
      else
        Error
          (Format.asprintf "witnesses differ: %a vs %a" Trace.pp h1 Trace.pp
             h2)
  | Bmc.Holds c1, Bmc.Holds c2 ->
      if c1 = c2 || c2 = Bmc.Exact then Ok ()
      else Error "confidence fell from Exact to Bounded"
  | Bmc.Refuted h, Bmc.Holds _ ->
      Error (Format.asprintf "walk missed refutation %a" Trace.pp h)
  | Bmc.Holds _, Bmc.Refuted h ->
      Error (Format.asprintf "walk over-refuted with %a" Trace.pp h)

let test_bmc_differential () =
  List.iter
    (fun (g', g) ->
      match
        cut_agrees ctx
          ~alphabet:(Spec.concrete_alphabet Util.paper_universe g')
          ~depth ~lhs:(Spec.tset g') ~proj:(Spec.alpha g) ~rhs:(Spec.tset g)
      with
      | Ok () -> ()
      | Error why ->
          Alcotest.failf "%s ⊑ %s: %s" (Spec.name g') (Spec.name g) why)
    corpus

(* Random specifications, with the refined side's alphabet expanded by
   construction (the situation Def. 2 clause 3's projection exists
   for). *)
let sc = Util.sc
let gctx = Util.ctx

let gen_pair =
  let open G in
  let* g = Gen.spec sc [ Oid.v "k0" ] in
  let* g' = Gen.refinement_of sc g in
  pure (g', g)

(* A refinement-by-construction pair plus a rival of the abstract side:
   same objects and alphabet, an unrelated trace set, so clause 3
   against it is a genuine question. *)
let gen_triple =
  let open G in
  let* g', g = gen_pair in
  let* t =
    Gen.tset_within sc
      (Posl_sets.Eventset.sample sc.Gen.universe (Spec.alpha g))
  in
  let rival =
    Spec.v ~name:"Rival"
      ~objs:(Oid.Set.elements (Spec.objs g))
      ~alpha:(Spec.alpha g) t
  in
  pure (g', g, rival)

(* The complete walk may settle past the depth bound (it explores to
   exhaustion), so it can refute a pair the depth-cut oracle accepts
   with bounded confidence, and it can upgrade [Bounded] to [Exact] —
   but the two may never contradict each other within the depth-cut
   oracle's claim. *)
let qsuite =
  [
    Util.qtest ~count:60 "walk ≡ compiled DFAs on generated pairs" gen_triple
      (fun (g', g, rival) ->
        List.for_all
          (fun (l, r) ->
            Verdict.equal
              (Refine.verdict ~depth:4 gctx l r)
              (Oracle.refine Oracle.Legacy_auto ~depth:4 gctx l r)
            && Verdict.equal
                 (Theory.tset_equal gctx ~depth:4 l r)
                 (Oracle.tset_equal gctx ~depth:4 l r))
          [ (g', g); (g, g'); (g', rival); (rival, g) ]);
    Util.qtest ~count:60 "depth-cut walk ≡ level-wise on generated pairs"
      gen_triple (fun (g', g, rival) ->
        List.for_all
          (fun ((l, r), depth) ->
            cut_agrees gctx
              ~alphabet:(Spec.concrete_alphabet sc.Gen.universe l)
              ~depth ~lhs:(Spec.tset l) ~proj:(Spec.alpha r)
              ~rhs:(Spec.tset r)
            = Ok ())
          (List.concat_map
             (fun p -> List.map (fun d -> (p, d)) [ 1; 2; 3; 4 ])
             [ (g', g); (g', rival); (rival, g) ]));
    Util.qtest ~count:60 "antichain vs bounded route agreement" gen_pair
      (fun (g', g) ->
        let anti = Refine.verdict ~depth:4 gctx g' g in
        let bounded = Oracle.refine Oracle.Bounded ~depth:4 gctx g' g in
        (if Verdict.is_refuted bounded then
           Verdict.is_refuted anti
           && List.for_all2 Trace.equal
                (Verdict.witness_traces bounded)
                (Verdict.witness_traces anti)
         else true)
        && (if Verdict.is_holds anti then Verdict.is_holds bounded else true));
    Util.qtest ~count:60 "interning preserves the reference semantics"
      (let open G in
       let* g = Gen.spec sc [ Oid.v "k0" ] in
       let* len = G.int_range 0 4 in
       let* picks = G.list_size (G.pure len) (G.int_bound 1000) in
       pure (g, picks))
      (fun (g, picks) ->
        let t = Spec.tset g in
        let alphabet =
          Array.of_list
            (Posl_sets.Eventset.sample sc.Posl_gen.Gen.universe (Spec.alpha g))
        in
        if Array.length alphabet = 0 then true
        else
          let events =
            List.map (fun i -> alphabet.(i mod Array.length alphabet)) picks
          in
          let h = Trace.of_list events in
          (* Walk the monitor, round-tripping every state through the
             interning tables; the walk's answer must match the
             reference semantics, and the round-trip must be the
             identity up to [compare_state]. *)
          let node = Tset.node gctx t in
          let rec walk st = function
            | [] -> true
            | e :: rest -> (
                let id = Tset.intern_state gctx st in
                let st' = Tset.state_of_id gctx id in
                if Tset.compare_state st st' <> 0 then false
                else
                  match Tset.step node st' e with
                  | None -> false
                  | Some nxt -> walk nxt rest)
          in
          let stepped =
            match Tset.start node with
            | None -> false
            | Some st0 -> walk st0 events
          in
          stepped = Tset.mem_naive gctx t h);
  ]

let suite =
  [
    Alcotest.test_case "56-pair corpus: antichain Auto ≡ legacy Auto" `Quick
      test_corpus_verdicts_agree;
    Alcotest.test_case "56-pair corpus: equality walk ≡ compiled DFAs" `Quick
      test_corpus_equality_agrees;
    Alcotest.test_case "Bmc differential: antichain ≡ bounded at the cut"
      `Quick test_bmc_differential;
  ]
  @ qsuite
