(* End-to-end regression of every claim in the paper's Examples 1-6.
   This suite is the per-example index of EXPERIMENTS.md in executable
   form. *)

module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace
module Ex = Posl_core.Examples_paper

let ctx = Util.paper_ctx
let u = Util.paper_universe
let depth = 6

let refines g' g = Refine.refines ~depth ctx g' g

(* Example 1: Read allows concurrent reads; Write brackets and
   serialises writers. *)
let test_example1 () =
  let r x = Util.ev ~arg:(Posl_ident.Value.v "d1") x "o" "R" in
  let ow x = Util.ev x "o" "OW"
  and w x = Util.ev ~arg:(Posl_ident.Value.v "d1") x "o" "W"
  and cw x = Util.ev x "o" "CW" in
  Util.check_bool "concurrent reads fine" true
    (Spec.mem ctx Ex.read (Util.tr [ r "c"; r "obj1"; r "c" ]));
  Util.check_bool "bracketed write fine" true
    (Spec.mem ctx Ex.write (Util.tr [ ow "c"; w "c"; w "c"; cw "c" ]));
  Util.check_bool "second writer must wait" false
    (Spec.mem ctx Ex.write (Util.tr [ ow "c"; ow "obj1" ]));
  Util.check_bool "write without open rejected" false
    (Spec.mem ctx Ex.write (Util.tr [ w "c" ]));
  Util.check_bool "sequential writers fine" true
    (Spec.mem ctx Ex.write (Util.tr [ ow "c"; cw "c"; ow "obj1"; w "obj1"; cw "obj1" ]))

(* Example 2: Read2 refines Read; reads bracketed per caller, but not
   exclusive across callers. *)
let test_example2 () =
  Util.check_bool "Read2 ⊑ Read" true (refines Ex.read2 Ex.read);
  let or_ x = Util.ev x "o" "OR"
  and r x = Util.ev ~arg:(Posl_ident.Value.v "d1") x "o" "R" in
  Util.check_bool "two open readers" true
    (Spec.mem ctx Ex.read2 (Util.tr [ or_ "c"; or_ "obj1"; r "c"; r "obj1" ]))

(* Example 3: RW refines Read and Write but not Read2. *)
let test_example3 () =
  Util.check_bool "RW ⊑ Read" true (refines Ex.rw Ex.read);
  Util.check_bool "RW ⊑ Write" true (refines Ex.rw Ex.write);
  Util.check_bool "RW ⋢ Read2" false (refines Ex.rw Ex.read2);
  (* reads while holding write access are RW's distinguishing feature *)
  let h =
    Util.tr
      [ Util.ev "c" "o" "OW"; Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "o" "R" ]
  in
  Util.check_bool "read under write access in T(RW)" true
    (Tset.mem ctx (Spec.tset Ex.rw) h);
  (* exclusivity carried over from Write *)
  Util.check_bool "no second writer" false
    (Tset.mem ctx (Spec.tset Ex.rw)
       (Util.tr [ Util.ev "c" "o" "OW"; Util.ev "obj1" "o" "OW" ]));
  (* no reader bracket while writer open (P_RW2's disjunction) *)
  Util.check_bool "no OR while OW open" false
    (Tset.mem ctx (Spec.tset Ex.rw)
       (Util.tr [ Util.ev "c" "o" "OW"; Util.ev "obj1" "o" "OR" ]))

(* Example 4: composition with projection; observable behaviour OK*. *)
let test_example4 () =
  Util.check_bool "WriteAcc ⊑ Write" true (refines Ex.write_acc Ex.write);
  let comp = Compose.interface Ex.client Ex.write_acc in
  let alphabet = Spec.concrete_alphabet u comp in
  let ok = Util.ev "c" "om" "OK" in
  let t = Spec.tset comp in
  Util.check_bool "OK OK OK observable" true
    (Tset.mem ctx t (Util.tr [ ok; ok; ok ]));
  Util.check_bool "no deadlock" true
    (Option.is_none (Bmc.find_deadlock ctx ~alphabet ~depth t));
  (* T(Client‖WriteAcc) = prs OK*: compare against that spec directly. *)
  let ok_star =
    Tset.prs
      (Posl_regex.Regex.star
         (Posl_regex.Regex.atom
            (Posl_regex.Epat.make ~caller:(Posl_regex.Epat.Const (Posl_ident.Oid.v "c"))
               ~callee:(Posl_regex.Epat.Const (Posl_ident.Oid.v "om"))
               (Posl_sets.Mset.singleton (Posl_ident.Mth.v "OK")))))
  in
  match
    Bmc.check_equal ctx ~alphabet ~depth ~left:t ~right:ok_star
  with
  | Bmc.Holds _ -> ()
  | Bmc.Refuted (h, side) ->
      Alcotest.failf "T(Client‖WriteAcc) ≠ OK*: %a (%s)" Trace.pp h
        (match side with `Left_only -> "extra" | `Right_only -> "missing")

(* Example 5: refinement introduces deadlock; the deadlocked composition
   still refines the live one. *)
let test_example5 () =
  Util.check_bool "Client2 ⊑ Client" true (refines Ex.client2 Ex.client);
  let comp2 = Compose.interface Ex.client2 Ex.write_acc in
  let comp = Compose.interface Ex.client Ex.write_acc in
  let alphabet = Spec.concrete_alphabet u comp2 in
  let counts = Bmc.count_traces ctx ~alphabet ~depth:3 (Spec.tset comp2) in
  Alcotest.(check (array int)) "T(Client2‖WriteAcc) = {ε}" [| 1; 0; 0; 0 |] counts;
  Util.check_bool "deadlocked composition still refines" true
    (refines comp2 comp)

(* Example 6: harmonising abstraction levels by refining a constituent. *)
let test_example6 () =
  Util.check_bool "RW2 ⊑ RW" true (refines Ex.rw2 Ex.rw);
  Util.check_bool "RW2 ⊑ WriteAcc" true (refines Ex.rw2 Ex.write_acc);
  let left = Compose.interface Ex.rw2 Ex.client in
  let right = Compose.interface Ex.write_acc Ex.client in
  match Theory.tset_equal ctx ~depth left right with
  | o when Theory.is_pass o -> ()
  | o -> Alcotest.failf "Example 6 equality: %a" Theory.pp_outcome o

(* Theorem 7 instantiated as in Example 6's argument: RW2 ⊑ WriteAcc
   gives RW2‖Client ⊑ WriteAcc‖Client. *)
let test_theorem7_on_paper_instance () =
  match
    Theory.theorem7 ctx ~depth ~gamma':Ex.rw2 ~gamma:Ex.write_acc
      ~delta:Ex.client
  with
  | o when Theory.is_pass o -> ()
  | o -> Alcotest.failf "Theorem 7 on paper instance: %a" Theory.pp_outcome o

(* Property 5 and Lemma 6 across all paper interface specs. *)
let test_property5_all () =
  List.iter
    (fun g ->
      match Theory.property5 ctx ~depth g with
      | o when Theory.is_pass o -> ()
      | o -> Alcotest.failf "Property 5 for %s: %a" (Spec.name g) Theory.pp_outcome o)
    Ex.all_specs

let test_lemma6_all_pairs () =
  let specs_of_o = [ Ex.read; Ex.write; Ex.read2; Ex.rw ] in
  List.iter
    (fun g1 ->
      List.iter
        (fun g2 ->
          match Theory.lemma6_refines ctx ~depth:4 g1 g2 with
          | o when Theory.is_pass o -> ()
          | o ->
              Alcotest.failf "Lemma 6 for %s, %s: %a" (Spec.name g1)
                (Spec.name g2) Theory.pp_outcome o)
        specs_of_o)
    specs_of_o

let suite =
  [
    Alcotest.test_case "Example 1: Read and Write" `Quick test_example1;
    Alcotest.test_case "Example 2: Read2" `Quick test_example2;
    Alcotest.test_case "Example 3: RW" `Quick test_example3;
    Alcotest.test_case "Example 4: Client ‖ WriteAcc" `Quick test_example4;
    Alcotest.test_case "Example 5: deadlock via refinement" `Quick
      test_example5;
    Alcotest.test_case "Example 6: RW2 harmonises levels" `Quick test_example6;
    Alcotest.test_case "Theorem 7 on the paper instance" `Quick
      test_theorem7_on_paper_instance;
    Alcotest.test_case "Property 5 on all paper specs" `Quick
      test_property5_all;
    Alcotest.test_case "Lemma 6 on all viewpoint pairs" `Quick
      test_lemma6_all_pairs;
  ]
