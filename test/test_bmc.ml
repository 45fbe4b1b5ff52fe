(* The state-space exploration engine: inclusion, equality, deadlock,
   counting and enumeration, with deadlock cross-checked against trace
   enumeration. *)

module Bmc = Posl_bmc.Bmc
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Spec = Posl_core.Spec
module Ex = Posl_core.Examples_paper
module Eventset = Posl_sets.Eventset
module Counting = Posl_tset.Counting
module G = QCheck2.Gen
module Gen = Posl_gen.Gen
module Oracle = Posl_oracle.Oracle

let ctx = Util.paper_ctx
let u = Util.paper_universe

let write_alphabet = Spec.concrete_alphabet u Ex.write

let test_count_matches_enumerate () =
  let t = Spec.tset Ex.write in
  let counts = Bmc.count_traces ctx ~alphabet:write_alphabet ~depth:4 t in
  let traces = Bmc.enumerate ctx ~alphabet:write_alphabet ~depth:4 t in
  let by_len = Array.make 5 0 in
  List.iter
    (fun h -> by_len.(Trace.length h) <- by_len.(Trace.length h) + 1)
    traces;
  Array.iteri
    (fun i c -> Util.check_int (Printf.sprintf "length %d" i) c by_len.(i))
    counts

let test_enumerate_members_only () =
  let t = Spec.tset Ex.write in
  let traces = Bmc.enumerate ctx ~alphabet:write_alphabet ~depth:3 t in
  List.iter
    (fun h -> Util.check_bool "member" true (Tset.mem ctx t h))
    traces

let test_inclusion_positive () =
  (* T(Read2) projected on α(Read) is included in T(Read) = All. *)
  let alphabet = Spec.concrete_alphabet u Ex.read2 in
  match
    Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet ~depth:5
      ~lhs:(Spec.tset Ex.read2) ~proj:(Spec.alpha Ex.read)
      ~rhs:(Spec.tset Ex.read)
  with
  | Bmc.Holds _ -> ()
  | Bmc.Refuted h -> Alcotest.failf "unexpected refutation: %a" Trace.pp h

let test_inclusion_negative_witness () =
  (* T(RW) projected on α(Read2) escapes T(Read2); the witness must be a
     genuine member of T(RW) whose projection escapes. *)
  let alphabet = Spec.concrete_alphabet u Ex.rw in
  match
    Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet ~depth:5
      ~lhs:(Spec.tset Ex.rw) ~proj:(Spec.alpha Ex.read2)
      ~rhs:(Spec.tset Ex.read2)
  with
  | Bmc.Holds _ -> Alcotest.fail "expected refutation"
  | Bmc.Refuted h ->
      Util.check_bool "witness in T(RW)" true (Tset.mem ctx (Spec.tset Ex.rw) h);
      Util.check_bool "projection escapes" false
        (Tset.mem ctx (Spec.tset Ex.read2)
           (Eventset.restrict_trace (Spec.alpha Ex.read2) h))

let test_deadlock_client2 () =
  (* Example 5: T(Client2‖WriteAcc) = {ε}. *)
  let comp = Posl_core.Compose.interface Ex.client2 Ex.write_acc in
  let alphabet = Spec.concrete_alphabet u comp in
  (match Bmc.find_deadlock ctx ~alphabet ~depth:6 (Spec.tset comp) with
  | Some h -> Util.check_bool "deadlock at ε" true (Trace.is_empty h)
  | None -> Alcotest.fail "expected a deadlock");
  let counts = Bmc.count_traces ctx ~alphabet ~depth:4 (Spec.tset comp) in
  Alcotest.(check (array int)) "only ε" [| 1; 0; 0; 0; 0 |] counts

let test_no_deadlock_client () =
  let comp = Posl_core.Compose.interface Ex.client Ex.write_acc in
  let alphabet = Spec.concrete_alphabet u comp in
  Util.check_bool "no deadlock" true
    (Option.is_none (Bmc.find_deadlock ctx ~alphabet ~depth:6 (Spec.tset comp)))

let test_enabled () =
  (* After OW from c, only W/CW by c are enabled in WriteAcc. *)
  let t = Spec.tset Ex.write_acc in
  let h = Util.tr [ Util.ev "c" "o" "OW" ] in
  let enabled = Bmc.enabled ctx ~alphabet:write_alphabet t h in
  Util.check_bool "some events enabled" true (enabled <> []);
  List.iter
    (fun e ->
      Util.check_bool "caller is c" true
        (Posl_ident.Oid.equal (Posl_trace.Event.caller e) (Posl_ident.Oid.v "c")))
    enabled

let test_exact_on_exhaustion () =
  (* Write's monitor has finitely many states: even the depth-cut walk
     exhausts them long before a huge depth, and the verdict is exact. *)
  match
    Bmc.check_inclusion_antichain ~complete:false ctx
      ~alphabet:write_alphabet ~depth:1_000_000 ~lhs:(Spec.tset Ex.write)
      ~proj:(Spec.alpha Ex.write) ~rhs:(Spec.tset Ex.write)
  with
  | Bmc.Holds Bmc.Exact -> ()
  | Bmc.Holds (Bmc.Bounded _) -> Alcotest.fail "expected exhaustion"
  | Bmc.Refuted _ -> Alcotest.fail "reflexive inclusion refuted"

let test_count_states () =
  let n = Bmc.count_states ctx ~alphabet:write_alphabet ~depth:6 (Spec.tset Ex.write) in
  Util.check_bool "more than one state" true (n > 1);
  (* All accepts everything with a single monitor state. *)
  Util.check_int "All has one state" 1
    (Bmc.count_states ctx ~alphabet:write_alphabet ~depth:6 Tset.all)

let sc = Util.sc
let gctx = Util.ctx
let probes = Eventset.sample sc.Gen.universe Eventset.full

(* A generated spec's trace set, often cut down by the prefix closure
   of a star-free expression: its finite words end in deadlocks at
   several lengths, where generated specs alone mostly deadlock at ε
   or never. *)
let gen_stuck =
  let open G in
  let* g = Gen.spec sc [ Posl_ident.Oid.v "k0" ] in
  let events = Eventset.sample sc.Gen.universe (Spec.alpha g) in
  let* r = Gen.regex_within sc events in
  let* cut = bool in
  pure
    ( Spec.concrete_alphabet sc.Gen.universe g,
      if cut then Tset.conj [ Spec.tset g; Tset.prs r ] else Spec.tset g )

(* [gen_stuck] with a response obligation over its own events: the
   triggers a random subset of them, the response one of them (or none,
   when the alphabet is empty), so that a cut often leaves it out of
   reach. *)
let gen_obligation =
  let open G in
  let* alphabet, t = gen_stuck in
  let events = Array.to_list alphabet in
  let set =
    List.fold_left
      (fun s e -> Eventset.union s (Eventset.of_event e))
      Eventset.empty
  in
  let* trigger = Gen.sub_list events in
  let* response =
    match events with [] -> pure [] | _ -> map (fun e -> [ e ]) (oneofl events)
  in
  pure (alphabet, t, set trigger, set response)

let qsuite =
  [
    Util.qtest ~count:40 "count_traces matches enumerate"
      (Gen.tset_within sc probes) (fun t ->
        let alphabet = Array.of_list probes in
        let counts = gctx |> fun c -> Bmc.count_traces c ~alphabet ~depth:3 t in
        let traces = Bmc.enumerate gctx ~alphabet ~depth:3 t in
        let by_len = Array.make 4 0 in
        List.iter
          (fun h -> by_len.(Trace.length h) <- by_len.(Trace.length h) + 1)
          traces;
        counts = by_len);
    Util.qtest ~count:40 "reflexive inclusion always holds"
      (Gen.tset_within sc probes) (fun t ->
        match
          Bmc.check_inclusion_antichain ~complete:false gctx
            ~alphabet:(Array.of_list probes) ~depth:3 ~lhs:t
            ~proj:Eventset.full ~rhs:t
        with
        | Bmc.Holds _ -> true
        | Bmc.Refuted _ -> false);
    (* Both sides of the deadlock walk against enumeration, at every
       depth up to 3: the witness is the first stuck trace in (length,
       alphabet) order, and "no deadlock" means no trace shorter than
       the depth is stuck. *)
    Util.qtest ~count:100 "deadlock agrees with enumeration" gen_stuck
      (fun (alphabet, t) ->
        List.for_all
          (fun depth ->
            Option.equal Trace.equal
              (Bmc.find_deadlock gctx ~alphabet ~depth t)
              (Oracle.first_stuck gctx ~alphabet ~depth t))
          [ 1; 2; 3 ]);
    (* The obligation walk against enumeration at depths 1 and 2:
       refuted exactly when some trace leaves a trigger open with no
       response reachable, and then by the first such trace in
       (length, alphabet) order. *)
    Util.qtest ~count:200 "obligations agree with enumeration" gen_obligation
      (fun (alphabet, t, trigger, response) ->
        List.for_all
          (fun depth ->
            match
              ( Bmc.find_unanswered gctx ~alphabet ~depth ~trigger ~response t,
                Oracle.first_unanswered gctx ~alphabet ~depth ~trigger
                  ~response t )
            with
            | Bmc.Holds _, None -> true
            | Bmc.Refuted h, Some h' -> Trace.equal h h'
            | _ -> false)
          [ 1; 2 ]);
  ]

(* A counter unbounded below, #OW - #CW <= 1: its reachable monitor
   states form a chain, one new count per level, so a complete walk
   admits about one pair per level and runs ~200,000 levels deep before
   its pair budget stops it.  That must stay linear in the pairs. *)
let test_chain_reaches_budget () =
  let ow = Util.ev "x" "o" "OW" and cw = Util.ev "x" "o" "CW" in
  let counter () =
    let open Counting.Build in
    let b = create () in
    let c_ow = cls b (Eventset.of_event ow) in
    let c_cw = cls b (Eventset.of_event cw) in
    Tset.counting (finish b (count c_ow -- count c_cw <=. 1))
  in
  let t0 = Unix.gettimeofday () in
  let v =
    Bmc.check_inclusion_antichain (Tset.ctx u) ~alphabet:[| ow; cw |] ~depth:2
      ~lhs:(counter ()) ~proj:Eventset.full ~rhs:(counter ())
  in
  let secs = Unix.gettimeofday () -. t0 in
  Util.check_bool "holds, bounded at depth 2" true
    (match v with Bmc.Holds (Bmc.Bounded 2) -> true | _ -> false);
  Util.check_bool (Printf.sprintf "under 10 s (%.1f s)" secs) true (secs < 10.)

let suite =
  [
    Alcotest.test_case "count matches enumerate (Write)" `Quick
      test_count_matches_enumerate;
    Alcotest.test_case "enumerate yields members only" `Quick
      test_enumerate_members_only;
    Alcotest.test_case "inclusion positive" `Quick test_inclusion_positive;
    Alcotest.test_case "inclusion negative witness" `Quick
      test_inclusion_negative_witness;
    Alcotest.test_case "deadlock of Client2 (Example 5)" `Quick
      test_deadlock_client2;
    Alcotest.test_case "no deadlock for Client (Example 4)" `Quick
      test_no_deadlock_client;
    Alcotest.test_case "enabled events" `Quick test_enabled;
    Alcotest.test_case "exact on exhaustion" `Quick test_exact_on_exhaustion;
    Alcotest.test_case "count_states" `Quick test_count_states;
    Alcotest.test_case "chain monitor reaches the pair budget" `Slow
      test_chain_reaches_budget;
  ]
  @ qsuite
