(* Assertion scripts: parsing, evaluation, round trip. *)

module Lang = Posl_lang.Lang
module Runner = Posl_lang.Runner
module Printer = Posl_lang.Printer
module Ast = Posl_lang.Ast

let script =
  {|
spec A {
  objects o;
  sort E = all except { o };
  alphabet call E -> o : M, N;
  traces prs (bind x in E . (<x,o,M> <x,o,N>))*;
}

spec B {
  objects o;
  sort E = all except { o };
  alphabet call E -> o : M, N;
  traces all;
}

spec Rev {
  objects o;
  sort E = all except { o };
  alphabet call E -> o : M, N;
  traces prs (bind x in E . (<x,o,N> <x,o,M>))*;
}

assert A refines B;
assert not B refines A;
assert A consistent B;
assert not A consistent Rev;
assert A composable B;
|}

let parse_ok src =
  match Lang.parse_string src with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse error: %a" Lang.pp_error e

let test_run_script () =
  let results = Runner.run_file ~depth:4 (parse_ok script) in
  Util.check_int "five assertions" 5 (List.length results);
  List.iteri
    (fun i r ->
      if not r.Runner.holds then
        Alcotest.failf "assertion %d failed: %a" i Runner.pp_result r)
    results;
  Util.check_bool "all pass" true (Runner.all_pass results)

let test_failing_assertion_reported () =
  let bad = script ^ "\nassert B refines A;\n" in
  let results = Runner.run_file ~depth:4 (parse_ok bad) in
  Util.check_bool "not all pass" false (Runner.all_pass results);
  let last = List.nth results (List.length results - 1) in
  Util.check_bool "last fails" false last.Runner.holds

let test_unknown_spec () =
  let bad = "assert Nope refines Nada;" in
  match Runner.run_file (parse_ok bad) with
  | exception Runner.Unknown_spec (name, _) ->
      (* names are resolved left to right *)
      Alcotest.(check string) "name" "Nope" name
  | _ -> Alcotest.fail "expected Unknown_spec"

let test_assertion_roundtrip () =
  let ast = parse_ok script in
  let printed = Printer.to_string ast in
  match Lang.parse_string printed with
  | Error e -> Alcotest.failf "reparse: %a" Lang.pp_error e
  | Ok ast' ->
      Util.check_bool "round trip" true (Ast.equal_file ast ast')

let spec_file = Util.spec_file

let test_paper_script () =
  (* The shipped paper.oun file must keep verifying. *)
  match Lang.parse_string (In_channel.with_open_bin (spec_file "paper.oun") In_channel.input_all) with
  | Error e -> Alcotest.failf "paper.oun: %a" Lang.pp_error e
  | Ok ast ->
      let results = Runner.run_file ~depth:6 ast in
      Util.check_bool "paper.oun has assertions" true (results <> []);
      List.iter
        (fun r ->
          if not r.Runner.holds then
            Alcotest.failf "paper.oun: %a" Runner.pp_result r)
        results

let test_atm_script () =
  match Lang.parse_string (In_channel.with_open_bin (spec_file "atm.oun") In_channel.input_all) with
  | Error e -> Alcotest.failf "atm.oun: %a" Lang.pp_error e
  | Ok ast ->
      let results = Runner.run_file ~depth:5 ast in
      Util.check_bool "atm.oun has assertions" true (results <> []);
      List.iter
        (fun r ->
          if not r.Runner.holds then
            Alcotest.failf "atm.oun: %a" Runner.pp_result r)
        results

let suite =
  [
    Alcotest.test_case "run a verification script" `Quick test_run_script;
    Alcotest.test_case "shipped atm.oun verifies" `Quick test_atm_script;
    Alcotest.test_case "failing assertion reported" `Quick
      test_failing_assertion_reported;
    Alcotest.test_case "unknown spec name" `Quick test_unknown_spec;
    Alcotest.test_case "assertion round trip" `Quick test_assertion_roundtrip;
    Alcotest.test_case "shipped paper.oun verifies" `Quick test_paper_script;
  ]
