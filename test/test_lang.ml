(* OUN-lite: lexing, parsing, elaboration, printing, and semantic
   agreement with the hand-built paper examples. *)

module Lang = Posl_lang.Lang
module Printer = Posl_lang.Printer
module Parser = Posl_lang.Parser
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Theory = Posl_core.Theory

let source_read_write =
  {|
// Example 1 of the paper, in OUN-lite.
spec Read {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : R(data);
  traces all;
}

spec Write {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : OW, CW, W(data);
  traces prs (bind x in Env . (<x,o,OW> <x,o,W(_)>* <x,o,CW>))*;
}

spec Read2 {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : OR, CR, R(data);
  traces forall x in Env . prs (<x,o,OR> <x,o,R(_)>* <x,o,CR>)*;
}

spec RW {
  objects o;
  sort Env = all except { o };
  alphabet call Env -> o : OW, CW, OR, CR, W(data), R(data);
  traces forall x in Env .
    prs (<x,o,OW> (<x,o,W(_)> | <x,o,R(_)>)* <x,o,CW>
        | <x,o,OR> <x,o,R(_)>* <x,o,CR>)*;
  traces count (#OW - #CW = 0 or #OR - #CR = 0) and #OW - #CW <= 1;
}
|}

let parse_ok src =
  match Lang.specs_of_string src with
  | Ok specs -> specs
  | Error e -> Alcotest.failf "parse/elab error: %a" Lang.pp_error e

let test_parse_paper_specs () =
  let specs = parse_ok source_read_write in
  Util.check_int "four specs" 4 (List.length specs);
  List.iter2
    (fun s expected -> Alcotest.(check string) "name" expected (Spec.name s))
    specs
    [ "Read"; "Write"; "Read2"; "RW" ]

(* The OUN-lite specs must agree semantically with the hand-built
   library values: mutual refinement means equal trace sets on the old
   alphabets, and the alphabets/objects are equal symbolically. *)
let test_semantic_agreement () =
  let specs = parse_ok source_read_write in
  let find name = Option.get (Lang.lookup specs name) in
  let ctx = Util.paper_ctx in
  let pairs =
    [
      (find "Read", Posl_core.Examples_paper.read);
      (find "Write", Posl_core.Examples_paper.write);
      (find "Read2", Posl_core.Examples_paper.read2);
      (find "RW", Posl_core.Examples_paper.rw);
    ]
  in
  List.iter
    (fun (parsed, builtin) ->
      match Theory.spec_equal ctx ~depth:5 parsed builtin with
      | o when Theory.is_pass o -> ()
      | o ->
          Alcotest.failf "%s disagrees with built-in: %a" (Spec.name parsed)
            Theory.pp_outcome o)
    pairs

let test_refinements_via_surface_syntax () =
  let specs = parse_ok source_read_write in
  let find name = Option.get (Lang.lookup specs name) in
  let ctx = Util.paper_ctx in
  let refines g' g = Refine.refines ~depth:5 ctx g' g in
  Util.check_bool "Read2 ⊑ Read" true (refines (find "Read2") (find "Read"));
  Util.check_bool "RW ⊑ Write" true (refines (find "RW") (find "Write"));
  Util.check_bool "RW ⋢ Read2" false (refines (find "RW") (find "Read2"))

let test_print_parse_roundtrip () =
  match Lang.parse_string source_read_write with
  | Error e -> Alcotest.failf "parse error: %a" Lang.pp_error e
  | Ok ast -> (
      let printed = Printer.to_string ast in
      match Lang.parse_string printed with
      | Error e ->
          Alcotest.failf "reparse error: %a@.printed:@.%s" Lang.pp_error e
            printed
      | Ok ast' ->
          Util.check_bool "round trip preserves the tree" true
            (Posl_lang.Ast.equal_file ast ast'))

let expect_error src fragment =
  match Lang.specs_of_string src with
  | Ok _ -> Alcotest.failf "expected an error mentioning %S" fragment
  | Error e ->
      let msg = Format.asprintf "%a" Lang.pp_error e in
      if not (Util.contains_substring ~needle:fragment msg) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_errors () =
  (* Unknown sort under a binder.  (In caller/callee position an unknown
     name is an object constant — specs may reference external objects
     like the paper's o′ — so only binders require declared sorts.) *)
  expect_error
    {| spec S { objects o; sort E = all except { o };
         alphabet call E -> o : M; traces forall x in Nope . all; } |}
    "unknown sort";
  (* Undeclared method in traces. *)
  expect_error
    {| spec S { objects o; sort E = all except { o };
         alphabet call E -> o : M; traces prs <c,o,N>*; } |}
    "not declared";
  (* Argument shape mismatch. *)
  expect_error
    {| spec S { objects o; sort E = all except { o };
         alphabet call E -> o : M(data); traces prs <c,o,M>*; } |}
    "carries data";
  (* Ill-formed: alphabet event internal to the object set. *)
  expect_error
    {| spec S { objects a, b; alphabet call a -> b : M; traces all; } |}
    "not well-formed";
  (* Syntax error. *)
  expect_error {| spec S objects o; } |} "expected";
  (* Lexer error. *)
  expect_error {| spec S { objects o; ? } |} "unexpected character"

(* A forall body is elaborated per object on first use, and once more
   at parse time, so its errors come out of [specs_of_string] like any
   other elaboration error instead of escaping from a later check. *)
let test_forall_body_errors () =
  expect_error
    {| spec S { objects o; sort Env = all except { o };
         alphabet call Env -> o : A;
         traces forall c in Env . prs <c,o,B>*; } |}
    "method B not declared";
  expect_error
    {| spec S { objects o; sort Env = all except { o };
         alphabet call Env -> o : A;
         traces forall c in Env . prs (bind y in Nope . (<y,o,A>))*; } |}
    "unknown sort"

let test_empty_traces_defaults_to_all () =
  let specs =
    parse_ok
      {| spec S { objects o; sort E = all except { o };
           alphabet call E -> o : M; } |}
  in
  let s = List.hd specs in
  let ctx = Util.paper_ctx in
  Util.check_bool "any alphabet trace accepted" true
    (Spec.mem ctx s (Util.tr [ Util.ev "c" "o" "M" ]))

let suite =
  [
    Alcotest.test_case "parse the paper's specs" `Quick test_parse_paper_specs;
    Alcotest.test_case "semantic agreement with built-ins" `Quick
      test_semantic_agreement;
    Alcotest.test_case "refinement via surface syntax" `Quick
      test_refinements_via_surface_syntax;
    Alcotest.test_case "print/parse round trip" `Quick
      test_print_parse_roundtrip;
    Alcotest.test_case "error reporting" `Quick test_errors;
    Alcotest.test_case "forall body errors surface at parse time" `Quick
      test_forall_body_errors;
    Alcotest.test_case "traces default to all" `Quick
      test_empty_traces_defaults_to_all;
  ]
