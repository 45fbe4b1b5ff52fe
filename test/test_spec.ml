(* Specifications: Def. 1 well-formedness, environments, adequate
   universes. *)

open Posl_ident
open Posl_sets
module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
module G = QCheck2.Gen
module Gen = Posl_gen.Gen

let o = Oid.v "o"
let x = Oid.v "x"

let test_wellformed () =
  let alpha =
    Eventset.calls ~callers:(Oset.cofin_of_list [ o ])
      ~callees:(Oset.singleton o) (Mset.of_list [ Mth.v "m" ])
  in
  let s = Spec.v ~name:"ok" ~objs:[ o ] ~alpha Tset.all in
  Util.check_bool "interface" true (Spec.is_interface s)

let test_rejects_empty_objs () =
  match Spec.validate ~name:"bad" ~objs:Oid.Set.empty ~alpha:Eventset.empty with
  | Error Spec.Empty_object_set -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok () -> Alcotest.fail "accepted empty object set"

let test_rejects_internal_alphabet () =
  (* An event between two specified objects is internal: Def. 1 excludes
     it from the alphabet. *)
  let alpha =
    Eventset.calls ~callers:(Oset.singleton o) ~callees:(Oset.singleton x)
      (Mset.of_list [ Mth.v "m" ])
  in
  match
    Spec.validate ~name:"bad" ~objs:(Oid.Set.of_list [ o; x ]) ~alpha
  with
  | Error (Spec.Alphabet_internal _) -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok () -> Alcotest.fail "accepted internal alphabet"

let test_rejects_detached_alphabet () =
  (* Events that involve none of the specified objects cannot be in the
     alphabet. *)
  let alpha =
    Eventset.calls
      ~callers:(Oset.singleton (Oid.v "a"))
      ~callees:(Oset.singleton (Oid.v "b"))
      (Mset.of_list [ Mth.v "m" ])
  in
  match Spec.validate ~name:"bad" ~objs:(Oid.Set.singleton o) ~alpha with
  | Error (Spec.Alphabet_detached _) -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok () -> Alcotest.fail "accepted detached alphabet"

let test_environment () =
  (* Read's communication environment is everything but o. *)
  let env = Spec.environment Posl_core.Examples_paper.read in
  Util.check_bool "o not in env" false (Oset.mem o env);
  Util.check_bool "client in env" true (Oset.mem (Oid.v "c") env);
  Util.check_bool "env infinite" false (Oset.is_finite env)

let test_adequate_universe () =
  let u = Spec.adequate_universe Posl_core.Examples_paper.all_specs in
  let objects = Universe.object_set u in
  Util.check_bool "has o" true (Oid.Set.mem o objects);
  Util.check_bool "has c" true (Oid.Set.mem (Oid.v "c") objects);
  Util.check_bool "has om" true (Oid.Set.mem (Oid.v "om") objects);
  (* extra environment objects beyond the named ones *)
  Util.check_bool "padded" true (Oid.Set.cardinal objects >= 5)

let test_mem_respects_alphabet () =
  let ctx = Util.paper_ctx in
  let read = Posl_core.Examples_paper.read in
  let r = Util.ev ~arg:(Value.v "d1") "c" "o" "R" in
  let ow = Util.ev "c" "o" "OW" in
  Util.check_bool "R in Read" true (Spec.mem ctx read (Util.tr [ r ]));
  (* OW is not in Read's alphabet: even though T(Read) = All, the trace
     is not over α(Read). *)
  Util.check_bool "OW not a Read trace" false (Spec.mem ctx read (Util.tr [ ow ]))

let qsuite =
  [
    Util.qtest ~count:200 "generated specs are well-formed"
      (G.bind
         (Gen.nonempty_sub_list Util.sc.Gen.component_objs)
         (fun objs -> Gen.spec Util.sc objs))
      (fun s ->
        Result.is_ok
          (Spec.validate ~name:(Spec.name s) ~objs:(Spec.objs s)
             ~alpha:(Spec.alpha s)));
    Util.qtest ~count:100 "concrete alphabet within symbolic alphabet"
      (Gen.spec Util.sc [ Oid.v "k0" ])
      (fun s ->
        Array.for_all
          (fun e -> Eventset.mem e (Spec.alpha s))
          (Spec.concrete_alphabet Util.sc.Gen.universe s));
  ]

(* A spec value keeps its content key: derived once per value and
   universe, again for another universe, and a renamed copy starts with
   none (the key serializes the name). *)
let test_keyed () =
  let derived = ref 0 in
  let derive () =
    incr derived;
    Some (string_of_int !derived)
  in
  (* a copy, so no shared value keeps these made-up keys *)
  let s = Spec.with_name "Read2" Posl_core.Examples_paper.read2 in
  let u2 = Util.paper_universe and u3 = Spec.adequate_universe ~extra_objects:3 [ s ] in
  let key u = Spec.keyed s ~universe:u derive in
  let first = key u2 in
  Alcotest.(check (option string)) "asked again: kept" first (key u2);
  Alcotest.(check (option string))
    "a structurally equal universe: kept" first
    (key (Spec.adequate_universe Posl_core.Examples_paper.all_specs));
  Util.check_int "derived once" 1 !derived;
  ignore (key u3);
  Util.check_int "another universe derives again" 2 !derived;
  ignore (Spec.keyed (Spec.with_name "Other" s) ~universe:u3 derive);
  Util.check_int "a renamed copy derives its own" 3 !derived

let suite =
  [
    Alcotest.test_case "well-formed spec accepted" `Quick test_wellformed;
    Alcotest.test_case "keyed: once per value and universe" `Quick test_keyed;
    Alcotest.test_case "empty object set rejected" `Quick
      test_rejects_empty_objs;
    Alcotest.test_case "internal alphabet rejected" `Quick
      test_rejects_internal_alphabet;
    Alcotest.test_case "detached alphabet rejected" `Quick
      test_rejects_detached_alphabet;
    Alcotest.test_case "communication environment" `Quick test_environment;
    Alcotest.test_case "adequate universe" `Quick test_adequate_universe;
    Alcotest.test_case "membership respects alphabet" `Quick
      test_mem_respects_alphabet;
  ]
  @ qsuite
