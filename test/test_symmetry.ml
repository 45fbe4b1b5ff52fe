(* Symmetry breaking in the product walk.  The escape questions
   (inclusion, equality) and the stuck question (deadlock) bring the
   objects a question does not mention into use in universe order only.
   The reduced walk must answer as the unreduced oracles do, witnesses
   included; it must keep the full walk where a monitor or the
   alphabet's order can tell those objects apart; and it must cut the
   work it exists to cut. *)

open Posl_ident
open Posl_sets
module Bmc = Posl_bmc.Bmc
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Ex = Posl_core.Examples_paper
module Gen = Posl_gen.Gen
module Oracle = Posl_oracle.Oracle
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Engine = Posl_engine.Engine
module Manifest = Posl_engine.Manifest
module G = QCheck2.Gen

let sc = Util.sc

(* The default scenario plus two fresh objects, which no generated spec
   mentions. *)
let universe =
  Universe.add_objects sc.Gen.universe
    (Oid.fresh_many_outside 2 (Universe.object_set sc.Gen.universe))

(* A refinement pair, a rival of the abstract side (its alphabet, an
   unrelated trace set) and a stuck-prone trace set as in [Test_bmc]. *)
let case =
  let open G in
  let* g = Gen.spec sc [ Oid.v "k0" ] in
  let* g' = Gen.refinement_of sc g in
  let events = Eventset.sample sc.Gen.universe (Spec.alpha g) in
  let* t = Gen.tset_within sc events in
  let rival =
    Spec.v ~name:"Rival" ~objs:(Oid.Set.elements (Spec.objs g))
      ~alpha:(Spec.alpha g) t
  in
  let* r = Gen.regex_within sc events in
  pure (g', g, rival, Tset.conj [ Spec.tset g; Tset.prs r ])

let depth = 3

let pp_opt ppf = function
  | Some h -> Trace.pp ppf h
  | None -> Format.pp_print_string ppf "none"

(* Whether the inclusion walk on [run]'s question ran with symmetric
   objects, read from its [bmc.antichain] span. *)
let reduced run =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    (fun () ->
      ignore (run ());
      List.exists
        (fun (s : Telemetry.span) ->
          s.name = "bmc.antichain" && List.mem ("symmetric", "true") s.attrs)
        (Telemetry.spans ()))

(* The depth-cut reading of an unbounded answer: a witness counts only
   when it fits within the cut. *)
let within = function
  | Some (Error h) when Trace.length h <= depth -> Some h
  | Some _ | None -> None

(* One inclusion question: the complete and the depth-cut walks against
   compiled DFAs.  [Some fired] when the oracle compiled it. *)
let inclusion ctx what ~alphabet ~lhs ~proj ~rhs =
  match Oracle.inclusion ctx ~alphabet ~proj ~lhs ~rhs with
  | None -> None
  | Some expected ->
      let walk ~complete () =
        Bmc.check_inclusion_antichain ~complete ctx ~alphabet ~depth ~lhs
          ~proj ~rhs
      in
      (match (expected, walk ~complete:true ()) with
      | Ok (), Bmc.Holds Bmc.Exact -> ()
      | Error h, Bmc.Refuted h' when Trace.equal h h' -> ()
      | _, v ->
          Alcotest.failf "%s, complete: oracle %s, walk %a" what
            (match expected with
            | Ok () -> "holds"
            | Error h -> Format.asprintf "%a" Trace.pp h)
            (Bmc.pp_verdict Trace.pp) v);
      (match (within (Some expected), walk ~complete:false ()) with
      | None, Bmc.Holds _ -> ()
      | Some h, Bmc.Refuted h' when Trace.equal h h' -> ()
      | h, v ->
          Alcotest.failf "%s, cut at %d: oracle %a, walk %a" what depth
            pp_opt h (Bmc.pp_verdict Trace.pp) v);
      Some (reduced (walk ~complete:true))

let equality ctx what (a : Spec.t) (b : Spec.t) =
  let alphabet =
    Array.of_list
      (Eventset.sample universe
         (Eventset.union (Spec.alpha a) (Spec.alpha b)))
  in
  let left = Spec.tset a and right = Spec.tset b in
  let oracle lhs rhs =
    Oracle.inclusion ctx ~alphabet ~proj:Eventset.full ~lhs ~rhs
  in
  let l = oracle left right and r = oracle right left in
  if Option.is_some l && Option.is_some r then
    let expected =
      match (within l, within r) with
      | Some h, _ -> Some (h, `Left_only)
      | None, Some h -> Some (h, `Right_only)
      | None, None -> None
    in
    match (expected, Bmc.check_equal ctx ~alphabet ~depth ~left ~right) with
    | None, Bmc.Holds _ -> ()
    | Some (h, side), Bmc.Refuted (h', side')
      when Trace.equal h h' && side = side' ->
        ()
    | _, v ->
        Alcotest.failf "%s: equality walk %a against the oracle's %a" what
          (Bmc.pp_verdict (fun ppf (h, _) -> Trace.pp ppf h))
          v pp_opt (Option.map fst expected)

let deadlock ctx what t alphabet =
  List.iter
    (fun d ->
      let walk = Bmc.find_deadlock ctx ~alphabet ~depth:d t
      and oracle = Oracle.first_stuck ctx ~alphabet ~depth:d t in
      if not (Option.equal Trace.equal walk oracle) then
        Alcotest.failf "%s, depth %d: walk %a, enumeration %a" what d pp_opt
          walk pp_opt oracle)
    [ 1; 2 ]

(* 100 seeded cases, each asking four inclusions, one equality and one
   deadlock question; the unreduced oracles must agree with every
   answer, and the reduction must have fired on most inclusions. *)
let test_differential () =
  let ctx = Tset.ctx universe in
  let cases = G.generate ~rand:(Random.State.make [| 29 |]) ~n:100 case in
  let fired = ref 0 and asked = ref 0 in
  List.iteri
    (fun i (g', g, rival, stuck) ->
      List.iter
        (fun (l, r) ->
          let what =
            Printf.sprintf "case %d: %s ⊑ %s" i (Spec.name l) (Spec.name r)
          in
          match
            inclusion ctx what
              ~alphabet:(Spec.concrete_alphabet universe l)
              ~lhs:(Spec.tset l) ~proj:(Spec.alpha r) ~rhs:(Spec.tset r)
          with
          | Some f ->
              incr asked;
              if f then incr fired
          | None -> ())
        [ (g', g); (g, g'); (g', rival); (rival, g) ];
      equality ctx (Printf.sprintf "case %d" i) g' rival;
      deadlock ctx (Printf.sprintf "case %d" i) stuck
        (Spec.concrete_alphabet universe g))
    cases;
  Util.check_bool
    (Printf.sprintf "the reduction fired on most inclusions (%d of %d)" !fired
       !asked)
    true
    (2 * !fired > !asked)

(* Three objects, two of which nothing but a [Pointwise] predicate can
   tell apart: one that rejects any call by obj4 before a call by
   obj3. *)
let o = Oid.v "o"
and obj3 = Oid.v "obj3"
and obj4 = Oid.v "obj4"

let small =
  Universe.make ~objects:[ o; obj3; obj4 ] ~methods:[ Mth.v "M" ] ~values:[]

let calls_to_o =
  Eventset.calls ~args:Argsel.none_only
    ~callers:(Oset.cofin_of_list [ o ])
    ~callees:(Oset.singleton o)
    (Mset.singleton (Mth.v "M"))

let call x = Event.make ~caller:x ~callee:o (Mth.v "M")

let test_pointwise_keeps_full_walk () =
  let ctx = Tset.ctx small in
  let obj3_first h =
    let rec scan = function
      | [] -> true
      | e :: rest ->
          if Oid.equal (Event.caller e) obj3 then true
          else if Oid.equal (Event.caller e) obj4 then false
          else scan rest
    in
    scan (Trace.to_list h)
  in
  let rhs = Tset.pointwise "obj3 calls first" obj3_first in
  let alphabet = Array.of_list (Eventset.sample small calls_to_o) in
  let ask () =
    Bmc.check_inclusion_antichain ctx ~alphabet ~depth:3 ~lhs:Tset.all
      ~proj:calls_to_o ~rhs
  in
  (match ask () with
  | Bmc.Refuted h ->
      Alcotest.check Util.trace "lex-least witness" (Util.tr [ call obj4 ]) h
  | Bmc.Holds _ -> Alcotest.fail "a call by obj4 first escapes the predicate");
  Util.check_bool "no symmetric objects" false (reduced ask)

(* At most one call: its violations are two calls, and with the
   alphabet listed obj4 first the lex-least one is obj4's twice.  A
   walk that brought obj3 into use first would answer obj3 then obj4. *)
let test_alphabet_order_checked () =
  let once =
    match
      Posl_lang.Lang.specs_of_string
        "spec Once {\n\
        \  objects o;\n\
        \  sort Env = all except { o };\n\
        \  alphabet call Env -> o : M;\n\
        \  traces prs <_,o,M>;\n\
         }\n"
    with
    | Ok [ s ] -> Spec.tset s
    | Ok _ | Error _ -> Alcotest.fail "Once does not elaborate"
  in
  let ctx = Tset.ctx small in
  let sampled = Array.of_list (Eventset.sample small calls_to_o) in
  let reversed = Array.of_list (List.rev (Array.to_list sampled)) in
  let ask alphabet () =
    Bmc.check_inclusion_antichain ctx ~alphabet ~depth:3 ~lhs:Tset.all
      ~proj:Eventset.full ~rhs:once
  in
  List.iter
    (fun (what, alphabet, first, fires) ->
      let expected =
        match
          Oracle.inclusion ctx ~alphabet ~proj:Eventset.full ~lhs:Tset.all
            ~rhs:once
        with
        | Some (Error h) -> h
        | Some (Ok ()) | None -> Alcotest.fail "the oracle finds no violation"
      in
      Alcotest.check Util.trace (what ^ ": oracle")
        (Util.tr [ call first; call first ])
        expected;
      (match ask alphabet () with
      | Bmc.Refuted h ->
          Alcotest.check Util.trace (what ^ ": walk") expected h
      | Bmc.Holds _ -> Alcotest.failf "%s: two calls escape" what);
      Util.check_bool (what ^ ": reduced") fires (reduced (ask alphabet)))
    [ ("sampled", sampled, obj3, true); ("reversed", reversed, obj4, false) ]

(* Work pins.  The 56 ordered paper pairs, cold, admitted 362 pairs
   with the full walk and 151 with the reduction. *)
let test_paper_pairs_work () =
  let ctx = Tset.ctx Util.paper_universe in
  let before = Metrics.value Bmc.antichain_pairs_c in
  List.iter
    (fun g' ->
      List.iter
        (fun g -> if g' != g then ignore (Refine.verdict ~depth:6 ctx g' g))
        Ex.all_specs)
    Ex.all_specs;
  let admitted = Metrics.value Bmc.antichain_pairs_c - before in
  Util.check_bool
    (Printf.sprintf "56 paper pairs admit at most 151 pairs (%d)" admitted)
    true (admitted <= 151)

(* [fleet.manifest] without the planner: a monitor that ignores object
   identities reaches each state under several counts of objects in
   use, so keying pairs by that count would admit 56 pairs, where the
   full walk admits 28 and the reduced one 23. *)
let test_fleet_work () =
  match
    Manifest.requests_of_file_typed ~default_depth:6 ~extra_objects:2
      (Util.spec_file "fleet.manifest")
  with
  | Error e -> Alcotest.fail (Manifest.input_error_detail e)
  | Ok requests ->
      let _, stats =
        Engine.run_batch ~domains:1 ~plan:Posl_engine.Plan.Off requests
      in
      Util.check_bool
        (Printf.sprintf "fleet.manifest --plan off admits at most 28 pairs (%d)"
           stats.Engine.antichain_pairs)
        true
        (stats.Engine.antichain_pairs <= 28)

let suite =
  [
    Alcotest.test_case "reduced walk ≡ unreduced oracles, witnesses included"
      `Quick test_differential;
    Alcotest.test_case "a Pointwise monitor keeps the full walk" `Quick
      test_pointwise_keeps_full_walk;
    Alcotest.test_case "an alphabet out of sample order keeps the full walk"
      `Quick test_alphabet_order_checked;
    Alcotest.test_case "work: the 56 paper pairs" `Quick test_paper_pairs_work;
    Alcotest.test_case "work: fleet.manifest without the planner" `Quick
      test_fleet_work;
  ]
