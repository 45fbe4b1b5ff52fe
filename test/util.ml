(* Shared helpers for the test suite. *)

module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Alcotest testable for traces. *)
let trace = Alcotest.testable Trace.pp Trace.equal

let sc = Posl_gen.Gen.default_scenario
let ctx = Tset.ctx sc.Posl_gen.Gen.universe

(* The test may run from the workspace root (dune exec) or from the
   staged test directory (dune runtest); resolve a shipped spec file
   either way. *)
let spec_file name =
  let candidates =
    [
      Filename.concat "../examples/specs" name;
      Filename.concat "examples/specs" name;
      Filename.concat "../../../examples/specs" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "cannot locate %s from %s" name (Sys.getcwd ())

(* [reparse name ()] parses the shipped spec file [name] afresh (read
   once): every call gives new trace-set values, as an edited file's
   re-parse does. *)
let reparse name =
  let text = In_channel.with_open_bin (spec_file name) In_channel.input_all in
  fun () ->
    match Posl_lang.Lang.specs_of_string text with
    | Ok specs -> specs
    | Error e -> Alcotest.failf "%s: %a" name Posl_lang.Lang.pp_error e

(* A fixed tiny universe mirroring the paper's cast. *)
let paper_universe =
  Posl_core.Spec.adequate_universe Posl_core.Examples_paper.all_specs

let paper_ctx = Tset.ctx paper_universe

let ev ?arg caller callee m =
  Event.make ?arg
    ~caller:(Posl_ident.Oid.v caller)
    ~callee:(Posl_ident.Oid.v callee)
    (Posl_ident.Mth.v m)

let tr events = Trace.of_list events

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub haystack i nl = needle then true
    else scan (i + 1)
  in
  nl = 0 || scan 0

(* A spec file with [S] and [Bound] over OW, CW, OR, CR: Bound counts
   the OW/CW sessions, S the [counted] pair.  With ("OW", "CW") S
   refines Bound; with ("OR", "CR") it does not.  Either way the two S
   share a name, objects, alphabet and proposition, so only the counting
   classes tell their content addresses apart. *)
let count_source ~counted =
  let spec name counted =
    Printf.sprintf
      "spec %s {\n\
      \  objects o;\n\
      \  sort Env = all except { o };\n\
      \  alphabet call Env -> o : OW, CW, OR, CR;\n\
      \  traces count #%s - #%s <= 1 and #%s - #%s >= 0;\n\
       }\n"
      name (fst counted) (snd counted) (fst counted) (snd counted)
  in
  spec "S" counted ^ spec "Bound" ("OW", "CW")
