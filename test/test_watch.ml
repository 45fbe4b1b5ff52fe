(* posl.watch: the incremental watcher over the fleet corpus (counters,
   flips, parse-error resilience, census and manifest-only edits,
   duplicate spec names), the refinement-session journal (restart
   replay, torn tail, convergence signal), and the proof obligation of
   reuse.  A round re-runs a query iff its dependency token moved, so
   two things are checked: as a property, a query's base digest moves
   exactly when its token does; end to end, the watcher's standing
   verdicts equal a cold batch over the same manifest after every
   scripted edit.  The counters pin the reach of an edit: a GaugeR
   edit re-runs one fleet query, a Gauge2 edit six, a comment edit
   none (no round at all). *)

module Manifest = Posl_engine.Manifest
module Engine = Posl_engine.Engine
module Cache = Posl_engine.Cache
module Job = Posl_engine.Job
module Qdigest = Posl_engine.Digest
module Spec = Posl_core.Spec
module Watch = Posl_watch.Watch
module Journal = Posl_watch.Journal
module V = Posl_verdict.Verdict
module Telemetry = Posl_telemetry.Telemetry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec_file = Util.spec_file
let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "posl-watch-test-%d-%d" (Unix.getpid ()) !n)
    in
    Unix.mkdir d 0o700;
    d

(* A scratch fleet corpus the test can edit in place. *)
let fleet_copy () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "fleet.manifest" in
  let spec = Filename.concat dir "fleet.oun" in
  write_file manifest (read_file (spec_file "fleet.manifest"));
  write_file spec (read_file (spec_file "fleet.oun"));
  (manifest, spec)

let replace ~needle ~by s =
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then Alcotest.failf "edit needle not found: %s" needle
    else if String.sub s i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + nl) (sl - i - nl)

(* Universe-preserving edits, verified against the shipped fleet.oun:
   both touch one spec's [traces] section only, so the adequate
   universe — and with it every other spec's digest — stands. *)
let gauger_line = "traces prs (bind x in Env . (<x,g,SAMPLE(_)>))*;"

let gauger_doubled =
  "traces prs (bind x in Env . (<x,g,SAMPLE(_)> <x,g,SAMPLE(_)>))*;"

let gauge2_line = "<x,g,OPEN> <x,g,SAMPLE(_)>* <x,g,CLOSE>"
let gauge2_edited = "<x,g,OPEN> <x,g,CLOSE>"

let parse_specs text =
  match Manifest.specs_of_source ~extra_objects:2 ~file:"fleet.oun" text with
  | Ok v -> v
  | Error e -> Alcotest.failf "fleet.oun: %s" (Manifest.input_error_message e)

let fleet_entries () =
  match
    Manifest.entries_typed ~path:"fleet.manifest" ~default_depth:6
      (read_file (spec_file "fleet.manifest"))
  with
  | Ok es -> es
  | Error e ->
      Alcotest.failf "fleet.manifest: %s" (Manifest.input_error_message e)

(* --- Manifest name plumbing the dependency token is built on ---------- *)

let test_composition_parts () =
  Alcotest.(check (list string))
    "three-part token" [ "Gauge2"; "Log"; "Clock" ]
    (Manifest.composition_parts "Gauge2||Log||Clock");
  Alcotest.(check (list string))
    "plain name" [ "Gauge" ]
    (Manifest.composition_parts "Gauge")

let test_resolve_name () =
  let specs, _u = parse_specs (read_file (spec_file "fleet.oun")) in
  (match Manifest.resolve_name specs ~file:"fleet.oun" "Gauge" with
  | Ok s -> Alcotest.(check string) "plain lookup" "Gauge" (Spec.name s)
  | Error m -> Alcotest.failf "resolve Gauge: %s" m);
  (match Manifest.resolve_name specs ~file:"fleet.oun" "Gauge||Log" with
  | Ok s ->
      check_bool "composition token builds a composite" true
        (Spec.parts s <> None)
  | Error m -> Alcotest.failf "resolve Gauge||Log: %s" m);
  check_bool "unknown name is an error" true
    (Result.is_error (Manifest.resolve_name specs ~file:"fleet.oun" "Nope"))

(* The token invariant, as a property: over universe-preserving edits
   to GaugeR's body, a fleet query's base digest moves exactly when its
   dependency token does — the file's universe digest or the [spec_key]
   of some composition part it names.  This is what lets a watch round
   answer an unmoved token from the standing verdict. *)
let test_token_property =
  let gen = QCheck2.Gen.int_range 2 5 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4 ~name:"unmoved token, unmoved digest" gen
       (fun k ->
         let original = read_file (spec_file "fleet.oun") in
         let sample = "<x,g,SAMPLE(_)>" in
         let by =
           Printf.sprintf "traces prs (bind x in Env . (%s))*;"
             (String.concat " " (List.init k (fun _ -> sample)))
         in
         let edited = replace ~needle:gauger_line ~by original in
         let old_corpus = parse_specs original in
         let new_corpus = parse_specs edited in
         let token (specs, universe) (e : Manifest.entry) =
           let key name =
             match List.find_opt (fun s -> Spec.name s = name) specs with
             | Some s -> Qdigest.spec_key ~universe s
             | None -> Alcotest.failf "no spec %s" name
           in
           Some (Job.universe_digest universe)
           :: List.map key
                (List.concat_map Manifest.composition_parts e.Manifest.names)
         in
         let base corpus e =
           match Manifest.request_of_entry ~load:(fun _ -> Ok corpus) e with
           | Ok (r : Engine.request) ->
               Qdigest.query_base ~universe:r.Engine.universe r.Engine.query
           | Error e ->
               Alcotest.failf "elaborate: %s" (Manifest.input_error_message e)
         in
         let entries = fleet_entries () in
         let moved e = token old_corpus e <> token new_corpus e in
         List.exists moved entries
         && List.for_all
              (fun e ->
                moved e = (base old_corpus e <> base new_corpus e))
              entries))

(* Watch ≡ cold batch: every standing verdict equals, label by label
   and modulo provenance, what a fresh batch over the same manifest
   answers.  This is what makes "reused" sound. *)
let check_agrees_with_batch name manifest w =
  match
    Manifest.requests_of_file_typed ~default_depth:6 ~extra_objects:2 manifest
  with
  | Error e -> Alcotest.failf "%s: %s" name (Manifest.input_error_message e)
  | Ok rs ->
      let cold =
        List.map
          (fun (r : Engine.result) ->
            (r.Engine.request.Engine.label, r.Engine.verdict))
          (fst (Engine.run_batch ~domains:1 rs))
      in
      let standing = Watch.verdicts w in
      check_int (name ^ ": one standing verdict per query") (List.length cold)
        (List.length standing);
      List.iter2
        (fun (la, va) (lb, vb) ->
          Alcotest.(check string) (name ^ ": label") lb la;
          check_bool
            (Printf.sprintf "%s: %s agrees with a cold batch" name la)
            true
            (V.equal_modulo_provenance va vb))
        standing cold

(* --- the watcher over a live corpus ----------------------------------- *)

let poll_round w =
  match Watch.poll w with
  | Some r -> r
  | None -> Alcotest.fail "expected a watch round"

let test_watch_counters () =
  let manifest, spec = fleet_copy () in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "cold round verifies everything" 10 r1.Watch.invalidated;
  check_int "cold round reuses nothing" 0 r1.Watch.reused;
  check_int "ten queries" 10 r1.Watch.total;
  check_int "fleet holds" 0 r1.Watch.failing;
  check_bool "steady state: no round" true (Watch.poll w = None);
  (* One component edit: exactly the six Gauge2 queries re-run. *)
  write_file spec
    (replace ~needle:gauge2_line ~by:gauge2_edited (read_file spec));
  let r2 = poll_round w in
  check_int "six invalidated" 6 r2.Watch.invalidated;
  check_int "four reused" 4 r2.Watch.reused;
  check_int "no flips (refinements still hold)" 0
    (List.length r2.Watch.flips);
  (* A digest-neutral edit: content hash moves, no round runs. *)
  write_file spec (read_file spec ^ "\n// trailing comment\n");
  check_bool "comment edit: no round" true (Watch.poll w = None)

let test_watch_flip () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "cold round" 10 r1.Watch.invalidated;
  write_file spec (replace ~needle:gauger_line ~by:gauger_doubled original);
  let r2 = poll_round w in
  check_int "one invalidated" 1 r2.Watch.invalidated;
  check_int "nine reused" 9 r2.Watch.reused;
  (match r2.Watch.flips with
  | [ f ] ->
      check_bool "was holding" true (V.to_bool f.Watch.previous);
      check_bool "now refuted" false (V.to_bool f.Watch.verdict)
  | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
  check_int "one failing after the flip" 1 r2.Watch.failing;
  (* Reverting flips it back — and only it. *)
  write_file spec original;
  let r3 = poll_round w in
  check_int "revert invalidates one" 1 r3.Watch.invalidated;
  (match r3.Watch.flips with
  | [ f ] -> check_bool "back to holding" true (V.to_bool f.Watch.verdict)
  | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
  check_int "none failing" 0 r3.Watch.failing

let test_watch_parse_error () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  let r1 = poll_round w in
  let before = Watch.verdicts w in
  check_int "ten standing verdicts" 10 (List.length before);
  (* Half-saved file: cut inside the last spec's [traces] section. *)
  let cut =
    let needle = "traces" in
    let nl = String.length needle in
    let rec rfind i =
      if i < 0 then Alcotest.fail "no traces section in fleet.oun"
      else if String.sub original i nl = needle then i
      else rfind (i - 1)
    in
    String.sub original 0 (rfind (String.length original - nl) + 3)
  in
  write_file spec cut;
  let r2 = poll_round w in
  check_int "nothing invalidated" 0 r2.Watch.invalidated;
  check_int "everything reused" r1.Watch.total r2.Watch.reused;
  (match r2.Watch.diagnostics with
  | [ d ] ->
      check_bool "diagnostic carries a byte offset" true
        (d.Manifest.input_offset <> None)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check_bool "verdicts stand through the breakage" true
    (List.for_all2
       (fun (la, va) (lb, vb) -> String.equal la lb && V.equal va vb)
       before (Watch.verdicts w));
  (* A standing breakage is reported once, not every poll. *)
  check_bool "broken file: no second round" true (Watch.poll w = None);
  (* Restoring the original content is digest-visible but
     semantically neutral: no round. *)
  write_file spec original;
  check_bool "restore: no round" true (Watch.poll w = None)

(* An edit that only changes what a count clause counts moves the
   spec's content address, so the watcher runs a round and reports the
   flip. *)
let test_watch_count_classes () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "count.manifest" in
  let spec = Filename.concat dir "s.oun" in
  write_file spec (Util.count_source ~counted:("OW", "CW"));
  write_file manifest "use s.oun\nrefine S Bound\n";
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "S refines Bound" 0 r1.Watch.failing;
  write_file spec (Util.count_source ~counted:("OR", "CR"));
  match Watch.poll w with
  | None -> Alcotest.fail "a count-class edit ran no round"
  | Some r2 ->
      check_int "one invalidated" 1 r2.Watch.invalidated;
      (match r2.Watch.flips with
      | [ f ] -> check_bool "now refuted" false (V.to_bool f.Watch.verdict)
      | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
      check_int "one failing" 1 r2.Watch.failing

(* Two specs named S: name resolution picks the first, so editing the
   first S must flip [refine S Bound] — the second S is invisible. *)
let test_watch_duplicate_names () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "dup.manifest" in
  let spec = Filename.concat dir "s.oun" in
  let spec_text name traces =
    Printf.sprintf
      "spec %s {\n\
      \  objects o;\n\
      \  sort Env = all except { o };\n\
      \  alphabet call Env -> o : OW, CW;\n\
      \  traces %s;\n\
       }\n"
      name traces
  in
  let bounded = "count #OW - #CW <= 1 and #OW - #CW >= 0" in
  let source first =
    spec_text "Bound" bounded ^ spec_text "S" first ^ spec_text "S" "all"
  in
  write_file spec (source bounded);
  write_file manifest "use s.oun\nrefine S Bound\n";
  let w = Watch.create manifest in
  let r1 = poll_round w in
  check_int "the first S refines Bound" 0 r1.Watch.failing;
  write_file spec (source "all");
  let r2 = poll_round w in
  check_int "one invalidated" 1 r2.Watch.invalidated;
  (match r2.Watch.flips with
  | [ f ] -> check_bool "now refuted" false (V.to_bool f.Watch.verdict)
  | fs -> Alcotest.failf "expected one flip, got %d" (List.length fs));
  check_int "one failing" 1 r2.Watch.failing;
  check_agrees_with_batch "edit the first S" manifest w

let gauger_spec =
  "spec GaugeR {\n\
  \  objects g;\n\
  \  sort Env = all except { g, l, k };\n\
  \  alphabet call Env -> g : SAMPLE(data);\n\
  \  " ^ gauger_line ^ "\n}\n"

(* A spec that no query names moves its file's generation but no
   query's token: the round re-runs nothing. *)
let test_watch_add_spec () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  ignore (poll_round w);
  let gauge3 =
    "\nspec Gauge3 {\n\
    \  objects g;\n\
    \  sort Env = all except { g, l, k };\n\
    \  alphabet call Env -> g : SAMPLE(data);\n\
    \  traces all;\n\
     }\n"
  in
  write_file spec (original ^ gauge3);
  let r = poll_round w in
  check_int "nothing invalidated" 0 r.Watch.invalidated;
  check_int "everything reused" 10 r.Watch.reused;
  check_agrees_with_batch "add Gauge3" manifest w

(* Deleting GaugeR errors its one query and leaves the other nine
   standing; restoring it re-runs that query alone. *)
let test_watch_delete_restore_spec () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let w = Watch.create manifest in
  ignore (poll_round w);
  write_file spec (replace ~needle:gauger_spec ~by:"" original);
  let r2 = poll_round w in
  check_int "nothing invalidated" 0 r2.Watch.invalidated;
  check_int "nine reused" 9 r2.Watch.reused;
  check_int "GaugeR's query errored" 1 r2.Watch.errored;
  write_file spec original;
  let r3 = poll_round w in
  check_int "restore re-runs one" 1 r3.Watch.invalidated;
  check_int "restore reuses nine" 9 r3.Watch.reused;
  check_int "restore errors none" 0 r3.Watch.errored;
  check_agrees_with_batch "restore GaugeR" manifest w

(* Manifest edits over an already-watched file: an added query runs
   alone, a reorder re-runs nothing, a comment runs no round. *)
let test_watch_manifest_edits () =
  let manifest, _spec = fleet_copy () in
  let manifest_text qs = String.concat "\n" ("use fleet.oun" :: qs) ^ "\n" in
  let q1 = "refine Gauge2||Log Gauge||Log"
  and q2 = "equal GaugeR||Log Gauge||Log"
  and q3 = "refine Gauge GaugeR" in
  write_file manifest (manifest_text [ q1; q2 ]);
  let w = Watch.create manifest in
  ignore (poll_round w);
  write_file manifest (manifest_text [ q1; q2; q3 ]);
  let r2 = poll_round w in
  check_int "the added query runs" 1 r2.Watch.invalidated;
  check_int "the others stand" 2 r2.Watch.reused;
  check_agrees_with_batch "add a query" manifest w;
  write_file manifest (manifest_text [ q3; q1; q2 ]);
  let r3 = poll_round w in
  check_int "reorder runs nothing" 0 r3.Watch.invalidated;
  check_int "reorder reuses all" 3 r3.Watch.reused;
  check_agrees_with_batch "reorder" manifest w;
  write_file manifest (manifest_text [ q3; q1; q2; "# a comment" ]);
  check_bool "comment edit: no round" true (Watch.poll w = None)

(* A round cut short by a closure overflow stores none of the slots it
   rebuilt, so the edit it was answering is not lost: once the
   overflowing query is gone, the next round re-runs [refine S Bound]
   and reports its flip. *)
let test_watch_overflow () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "ovf.manifest" in
  let spec = Filename.concat dir "s.oun" in
  let overflow =
    "spec A { objects a; sort Env = all except { a };\n\
    \  alphabet call a -> Env : P, Q; traces count #P - #Q <= 100000; }\n\
     spec B { objects b; sort Env = all except { b };\n\
    \  alphabet call Env -> b : P; traces all; }\n"
  in
  write_file spec (Util.count_source ~counted:("OW", "CW") ^ overflow);
  write_file manifest "use s.oun\nrefine S Bound\n";
  let w = Watch.create manifest in
  check_int "S refines Bound" 0 (poll_round w).Watch.failing;
  write_file spec (Util.count_source ~counted:("OR", "CR") ^ overflow);
  write_file manifest "use s.oun\nrefine S Bound\ndeadlock A B\n";
  (match Watch.poll w with
  | exception Job.Overflow _ -> ()
  | _ -> Alcotest.fail "expected a closure overflow");
  write_file manifest "use s.oun\nrefine S Bound\n";
  let r = poll_round w in
  check_int "the edited query re-runs" 1 r.Watch.invalidated;
  check_int "and flips" 1 (List.length r.Watch.flips);
  check_agrees_with_batch "after the overflow" manifest w

(* A forall body that names an undeclared method is an elaboration
   error of its file: the round reports it as a diagnostic, never an
   exception escaping from the check that first steps the body. *)
let test_watch_forall_body_error () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "bad.manifest" in
  let spec = Filename.concat dir "bad.oun" in
  let source name traces =
    Printf.sprintf
      "spec %s { objects o; sort Env = all except { o };\n\
      \  alphabet call Env -> o : A; traces %s; }\n"
      name traces
  in
  write_file spec
    (source "S" "forall c in Env . prs <c,o,B>*" ^ source "T" "all");
  write_file manifest "use bad.oun\nrefine S T\n";
  let w = Watch.create manifest in
  let r = poll_round w in
  (match r.Watch.diagnostics with
  | [ d ] ->
      check_bool "diagnostic names bad.oun" true
        (Filename.basename d.Manifest.input_file = "bad.oun");
      check_bool "and the undeclared method" true
        (Util.contains_substring ~needle:"method B not declared"
           d.Manifest.input_message)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check_int "no verdict" 0 (List.length (Watch.verdicts w))

(* A query naming a spec its file does not declare is a diagnostic of
   the round that rebuilds its slot, naming the spec; a later round that
   leaves the slot standing does not repeat it. *)
let test_watch_unknown_name () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "nope.manifest" in
  write_file (Filename.concat dir "paper.oun")
    (read_file (spec_file "paper.oun"));
  let queries qs = String.concat "\n" ("use paper.oun" :: qs) ^ "\n" in
  write_file manifest (queries [ "refine Read Nope"; "refine Read2 Read" ]);
  let w = Watch.create manifest in
  let r = poll_round w in
  check_int "one query errored" 1 r.Watch.errored;
  check_int "the other ran" 1 r.Watch.invalidated;
  (match r.Watch.diagnostics with
  | [ d ] ->
      check_bool "the diagnostic names Nope" true
        (Util.contains_substring ~needle:"no spec named Nope"
           d.Manifest.input_message)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
  check_bool "the text report counts it" true
    (Util.contains_substring ~needle:"1 errored"
       (Format.asprintf "%a" Watch.pp_report r));
  write_file manifest
    (queries [ "refine Read Nope"; "refine Read2 Read"; "refine RW Read" ]);
  let r2 = poll_round w in
  check_int "still errored" 1 r2.Watch.errored;
  check_int "not reported again" 0 (List.length r2.Watch.diagnostics);
  write_file manifest (queries [ "refine Read Read2"; "refine Read2 Read" ]);
  let r3 = poll_round w in
  check_int "fixed: nothing errored" 0 r3.Watch.errored;
  check_int "and no diagnostic" 0 (List.length r3.Watch.diagnostics)

(* A scripted session over two spec files: edit A, half-save A, fix A
   to new content, edit B, reorder and extend the manifest, then revert
   B.  Every poll's counters are pinned, so a change to how rounds
   reuse slots cannot move them, and after every step with no
   half-saved file the standing verdicts agree with a cold batch. *)
let test_watch_script () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "two.manifest" in
  let a = Filename.concat dir "a.oun" and b = Filename.concat dir "b.oun" in
  let fleet = read_file (spec_file "fleet.oun")
  and paper = read_file (spec_file "paper.oun") in
  let fleet_queries =
    [
      "refine Gauge2||Log Gauge||Log";
      "refine Gauge2||Clock Gauge||Clock";
      "equal GaugeR||Log Gauge||Log";
      "refine Gauge2||Log2 Gauge||Log";
      "deadlock Gauge2||Log Clock";
      "refine Gauge2 Gauge";
    ]
  and paper_queries =
    [
      "refine RW2 WriteAcc";
      "refine Read2 Read";
      "proper RW2 WriteAcc Client";
      "deadlock Client WriteAcc";
      "deadlock Client2 WriteAcc";
    ]
  in
  let manifest_text fq pq =
    String.concat "\n"
      ((("use a.oun" :: fq) @ ("use b.oun" :: pq)) @ [ "" ])
  in
  write_file a fleet;
  write_file b paper;
  write_file manifest (manifest_text fleet_queries paper_queries);
  let w = Watch.create manifest in
  (* invalidated, reused, errored, flips, failing; [None]: no round *)
  let expect ?(settled = true) name want edit =
    edit ();
    Alcotest.(check (option (list int)))
      name want
      (Option.map
         (fun (r : Watch.report) ->
           [
             r.Watch.invalidated;
             r.Watch.reused;
             r.Watch.errored;
             List.length r.Watch.flips;
             r.Watch.failing;
           ])
         (Watch.poll w));
    if settled then check_agrees_with_batch name manifest w
  in
  expect "cold" (Some [ 11; 0; 0; 0; 1 ]) ignore;
  expect "edit A" (Some [ 5; 6; 0; 0; 1 ]) (fun () ->
      write_file a (replace ~needle:gauge2_line ~by:gauge2_edited fleet));
  expect ~settled:false "half-save A" (Some [ 0; 11; 0; 0; 1 ]) (fun () ->
      write_file a (String.sub fleet 0 (String.length fleet / 2)));
  expect "fix A to new content" (Some [ 6; 5; 0; 1; 2 ]) (fun () ->
      write_file a (replace ~needle:gauger_line ~by:gauger_doubled fleet));
  (* WriteAcc (the first spec with the line) loses its client
     restriction *)
  expect "edit B" (Some [ 4; 7; 0; 1; 1 ]) (fun () ->
      write_file b (replace ~needle:"  traces prs <c,_,_>*;\n" ~by:"" paper));
  expect "reorder and add manifest lines" (Some [ 2; 11; 0; 0; 1 ]) (fun () ->
      write_file manifest
        (manifest_text
           (List.rev fleet_queries @ [ "compose Gauge||Log Clock" ])
           ("equal Read Read" :: List.rev paper_queries)));
  (* the two new queries already ran a step earlier *)
  expect "revert B" (Some [ 4; 9; 0; 1; 2 ]) (fun () -> write_file b paper)

(* RW2's write bound, and the looser one of the edits below: RW also
   has the bound, so the needle takes in RW2's next clause. *)
let rw2_bound = "#OW - #CW <= 1;\n  traces prs <c,_,_>*;"
let rw2_loose = "#OW - #CW <= 2;\n  traces prs <c,_,_>*;"

(* Reuse as work: an edit of RW2 alone re-runs RW2's queries, and the
   declarations it leaves alone keep their spec values, so their nodes,
   already resolved, are not resolved again.  The round resolves 4
   nodes' automata from the context's DFA cache; a watcher that mints
   every node afresh on each re-parse resolves 8.  The walk itself does
   the same work: the same 8 pairs, and no compile. *)
let test_watch_reuse_work () =
  let dir = fresh_dir () in
  List.iter
    (fun f -> write_file (Filename.concat dir f) (read_file (spec_file f)))
    [ "batch.manifest"; "paper.oun"; "atm.oun" ];
  let paper = Filename.concat dir "paper.oun" in
  let w = Watch.create (Filename.concat dir "batch.manifest") in
  ignore (poll_round w);
  write_file paper (replace ~needle:rw2_bound ~by:rw2_loose (read_file paper));
  let r = poll_round w in
  (* four queries, one of them on two manifest lines *)
  check_int "RW2's queries re-run" 5 r.Watch.invalidated;
  match r.Watch.stats with
  | None -> Alcotest.fail "the round ran no job"
  | Some st ->
      check_int "DFA cache hits" 4 st.Engine.dfa_cache_hits;
      check_int "antichain pairs" 8 st.Engine.antichain_pairs;
      check_int "DFA compiles" 0 st.Engine.dfa_compiles

(* A seeded session of 44 edits over fleet.oun and paper.oun, each
   rewriting one declaration: trace edits, a vocabulary edit (one method
   renamed, so the universe moves) every fourth step, the fleet's
   declarations reordered once, and a duplicate of Write added to
   paper.oun and later removed.  After every poll the standing verdicts
   agree with a cold batch. *)
let test_watch_seeded_edits () =
  let dir = fresh_dir () in
  let manifest = Filename.concat dir "edits.manifest" in
  let fleet_path = Filename.concat dir "fleet.oun"
  and paper_path = Filename.concat dir "paper.oun" in
  let fleet = read_file (spec_file "fleet.oun")
  and paper = read_file (spec_file "paper.oun") in
  write_file manifest
    (String.concat "\n"
       [
         "use fleet.oun";
         "refine Gauge2||Log Gauge||Log";
         "refine Gauge2||Clock Gauge||Clock";
         "refine Log2||Clock Log||Clock";
         "equal GaugeR||Log Gauge||Log";
         "refine Gauge2||Log2 Gauge||Log";
         "compose Gauge||Log Clock";
         "use paper.oun";
         "refine Read2 Read";
         "refine RW2 RW";
         "refine RW2 WriteAcc";
         "proper RW2 WriteAcc Client";
         "deadlock Client WriteAcc";
         "refine Client2 Client";
         "equal Write Write";
         "";
       ]);
  (* (file, needle, replacement): each rewrites one declaration *)
  let trace_edits =
    [|
      (`Fleet, gauger_line, gauger_doubled);
      (`Fleet, gauge2_line, gauge2_edited);
      ( `Fleet,
        "<x,l,BEGIN> <x,l,APPEND(_)>* <x,l,END>",
        "<x,l,BEGIN> <x,l,END>" );
      (`Paper, rw2_bound, rw2_loose);
      (`Paper, "<x,o,CW>))*;\n  traces prs <c,_,_>*;", "<x,o,CW>))*;");
      (`Paper, "(<c,o,W(_)> <c,om,OK>)*", "(<c,o,W(_)> <c,om,OK> <c,om,OK>)*");
    |]
  and vocab_edits =
    [|
      (`Fleet, "-> k : TICK;", "-> k : TOCK;");
      (`Fleet, "-> l : APPEND(data);", "-> l : ADD(data);");
      (`Paper, "-> o : R(data);", "-> o : RD(data);");
      ( `Paper,
        "OK, OW;\n  traces prs (<c,o,W(_)> <c,om,OK> <c,o,OW>)*;",
        "ACK, OW;\n  traces prs (<c,o,W(_)> <c,om,ACK> <c,o,OW>)*;" );
    |]
  in
  let on = Hashtbl.create 16 in
  let reordered = ref false and duplicated = ref false in
  (* [name]'s declaration through its closing line, and the rest *)
  let cut text name =
    let at needle from =
      let n = String.length needle in
      let rec find j =
        if String.sub text j n = needle then j else find (j + 1)
      in
      find from
    in
    let j = at ("spec " ^ name ^ " {") 0 in
    let k = at "\n}\n" j + 3 in
    ( String.sub text j (k - j),
      String.sub text 0 j ^ String.sub text k (String.length text - k) )
  in
  let render file =
    let base = match file with `Fleet -> fleet | `Paper -> paper in
    let base =
      match file with
      | `Fleet when !reordered ->
          let clock, rest = cut base "Clock" in
          replace ~needle:"spec Gauge {" ~by:(clock ^ "\nspec Gauge {") rest
      | `Paper when !duplicated -> base ^ "\n" ^ fst (cut base "Write")
      | _ -> base
    in
    Array.fold_left
      (fun text ((f, needle, by) as e) ->
        if f = file && Hashtbl.mem on e then replace ~needle ~by text else text)
      base
      (Array.append trace_edits vocab_edits)
  in
  let write file =
    write_file
      (match file with `Fleet -> fleet_path | `Paper -> paper_path)
      (render file)
  in
  write `Fleet;
  write `Paper;
  let w = Watch.create manifest in
  ignore (poll_round w);
  check_agrees_with_batch "cold" manifest w;
  let rand = Random.State.make [| 30 |] in
  for step = 1 to 44 do
    let file =
      match step with
      | 10 -> duplicated := true; `Paper
      | 30 -> duplicated := false; `Paper
      | 22 -> reordered := true; `Fleet
      | _ ->
          let edits = if step mod 4 = 0 then vocab_edits else trace_edits in
          let ((f, _, _) as e) =
            edits.(Random.State.int rand (Array.length edits))
          in
          if Hashtbl.mem on e then Hashtbl.remove on e else Hashtbl.add on e ();
          f
    in
    write file;
    ignore (Watch.poll w);
    check_agrees_with_batch (Printf.sprintf "step %d" step) manifest w
  done

(* --- the stat gate ------------------------------------------------------ *)

(* A same-size edit of GaugeR that flips its equality query (the
   sampling loop loses its star). *)
let gauger_once = "traces prs (bind x in Env . (<x,g,SAMPLE(_)>)) ;"

(* One poll with spans on, and the number of files its [watch.refresh]
   span says it read. *)
let traced_poll w =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled false)
      (fun () -> Watch.poll w)
  in
  let hashed =
    match
      List.find_opt
        (fun (s : Telemetry.span) -> s.Telemetry.name = "watch.refresh")
        (Telemetry.spans ())
    with
    | Some s -> int_of_string (List.assoc "hashed" s.Telemetry.attrs)
    | None -> Alcotest.fail "no watch.refresh span"
  in
  Telemetry.reset ();
  (hashed, r)

(* Idle polls until one reads no file: every watched file has then kept
   its stamp.  That takes the watcher's settling window, well under a
   second where timestamps carry sub-second digits; a watcher that
   reads every file at every poll never gets there. *)
let settle w =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    Unix.sleepf 0.06;
    match traced_poll w with
    | _, Some _ -> Alcotest.fail "an idle poll ran a round"
    | 0, None -> ()
    | _ when Unix.gettimeofday () > deadline ->
        Alcotest.fail "idle polls still read files after 10 s"
    | _ -> go ()
  in
  go ()

(* A whole second well in the past: a file's mtime put there is put
   back exactly. *)
let past () = Float.round (Unix.gettimeofday ()) -. 60.

let check_flipped name r =
  check_int (name ^ ": the GaugeR query re-runs") 1 r.Watch.invalidated;
  check_int (name ^ ": and flips") 1 (List.length r.Watch.flips)

(* An in-place rewrite of the same size, its mtime put back: only the
   ctime moved, so a stamp without it would miss the edit. *)
let test_gate_mtime_put_back () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec and t = past () in
  Unix.utimes spec t t;
  let w = Watch.create manifest in
  ignore (poll_round w);
  settle w;
  write_file spec (replace ~needle:gauger_line ~by:gauger_once original);
  Unix.utimes spec t t;
  check_flipped "mtime put back" (poll_round w)

(* A same-size file with the same mtime renamed over the watched one:
   the inode moved. *)
let test_gate_rename () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec and t = past () in
  Unix.utimes spec t t;
  let w = Watch.create manifest in
  ignore (poll_round w);
  settle w;
  let next = spec ^ ".new" in
  write_file next (replace ~needle:gauger_line ~by:gauger_once original);
  Unix.utimes next t t;
  Unix.rename next spec;
  check_flipped "renamed over" (poll_round w)

(* A same-size rewrite right after the poll that read the file, inside
   the settling window: that poll kept no stamp, so this one reads the
   file again, whatever the timestamps show. *)
let test_gate_rewrite_inside_window () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec and t = past () in
  let w = Watch.create manifest in
  ignore (poll_round w);
  write_file spec original;
  Unix.utimes spec t t;
  check_bool "same content: no round" true (Watch.poll w = None);
  write_file spec (replace ~needle:gauger_line ~by:gauger_once original);
  Unix.utimes spec t t;
  check_flipped "rewritten inside the window" (poll_round w)

(* A stamp is kept only once both its times are older than the settling
   window.  A file whose mtime lies ahead of the watcher's clock (as a
   skewed file server would write it) never settles, so every poll
   reads it: the same rule that covers a rewrite inside the window,
   which kernels with fine-grained timestamps make hard to stage. *)
let test_gate_unsettled () =
  let manifest, spec = fleet_copy () in
  let w = Watch.create manifest in
  ignore (poll_round w);
  settle w;
  let ahead = Unix.gettimeofday () +. 3600. in
  Unix.utimes spec ahead ahead;
  Unix.sleepf 0.1;
  for _ = 1 to 3 do
    match traced_poll w with
    | hashed, None -> check_int "an unsettled file is read at every poll" 1 hashed
    | _, Some _ -> Alcotest.fail "an unchanged file ran a round"
  done

(* Once settled, an idle poll reads no file and a one-file edit reads
   that file alone. *)
let test_gate_hashed () =
  let manifest, spec = fleet_copy () in
  let w = Watch.create manifest in
  ignore (poll_round w);
  settle w;
  check_int "an idle poll reads no file" 0 (fst (traced_poll w));
  write_file spec
    (replace ~needle:gauger_line ~by:gauger_doubled (read_file spec));
  match traced_poll w with
  | hashed, Some r ->
      check_int "a one-file edit reads one file" 1 hashed;
      check_flipped "one-file edit" r
  | _, None -> Alcotest.fail "the edit ran no round"

(* Superseded parses die with no collection forced.  One watcher over a
   fleet copy whose GaugeR trace section toggles every round, the
   verdict cache cleared before each poll (as an edit to new content
   would leave it), so every round parses the file afresh, keys its
   specs and walks the re-run query's monitors.  The major GC runs as
   allocation paces it, between those lookups: the major heap at round
   1,500 stays within 1.5x its size at round 500, with major cycles
   completed in between.  A memo whose lookups read the entries of
   superseded parses keeps them alive through every cycle those lookups
   fall in, and the heap grows with the rounds. *)
let test_soak_superseded_parses () =
  let manifest, spec = fleet_copy () in
  let original = read_file spec in
  let edited = replace ~needle:gauger_line ~by:gauger_doubled original in
  let session = Engine.session () in
  let w = Watch.create ~session manifest in
  ignore (poll_round w);
  (* once, before the readings: what ran before is not this soak's *)
  Gc.full_major ();
  let stat () =
    let s = Gc.quick_stat () in
    (s.Gc.heap_words, s.Gc.major_collections)
  in
  let early = 500 and last = 1_500 in
  let at_early = ref (0, 0) in
  for i = 1 to last do
    write_file spec (if i land 1 = 1 then edited else original);
    Cache.clear (Engine.session_cache session);
    let r = poll_round w in
    if r.Watch.invalidated <> 1 then
      Alcotest.failf "round %d re-ran %d queries, not 1" i r.Watch.invalidated;
    if i = early then at_early := stat ()
  done;
  let (early_words, early_cycles), (last_words, last_cycles) =
    (!at_early, stat ())
  in
  if last_cycles - early_cycles < 2 then
    Alcotest.failf "only %d major cycles from round %d to %d"
      (last_cycles - early_cycles) early last;
  if 2 * last_words > 3 * early_words then
    Alcotest.failf "major heap grew from %d words at round %d to %d at %d"
      early_words early last_words last

(* --- the session journal ---------------------------------------------- *)

let jr ~round ~failing ~flips =
  {
    Journal.round;
    failing;
    flips;
    invalidated = flips;
    reused = 10 - flips;
    elapsed_ms = 1.0;
  }

let test_journal_restart () =
  let dir = fresh_dir () in
  let j = Journal.open_ dir in
  check_int "fresh journal starts at 1" 1 (Journal.next_round j);
  List.iter (Journal.append j)
    [
      jr ~round:1 ~failing:3 ~flips:3;
      jr ~round:2 ~failing:2 ~flips:1;
      jr ~round:3 ~failing:1 ~flips:1;
    ];
  let live = Journal.rounds j in
  let live_signal = Journal.signal ~window:3 live in
  check_bool "failures strictly decreasing" true
    (live_signal = Journal.Converging);
  Journal.close j;
  (* Restart: the replayed history and signal match the live ones. *)
  let j2 = Journal.open_ dir in
  let replayed = Journal.rounds j2 in
  check_int "three rounds replayed" 3 (List.length replayed);
  check_bool "replay reproduces the history" true
    (List.for_all2
       (fun (a : Journal.round) (b : Journal.round) ->
         a.Journal.round = b.Journal.round
         && a.Journal.failing = b.Journal.failing
         && a.Journal.flips = b.Journal.flips)
       live replayed);
  check_bool "replayed signal agrees" true
    (Journal.signal ~window:3 replayed = live_signal);
  check_int "numbering continues" 4 (Journal.next_round j2);
  Journal.append j2 (jr ~round:4 ~failing:1 ~flips:0);
  check_bool "steady after a no-change round" true
    (Journal.signal ~window:2 (Journal.rounds j2) = Journal.Steady);
  Journal.close j2

let test_journal_torn_tail () =
  let dir = fresh_dir () in
  let j = Journal.open_ dir in
  List.iter (Journal.append j)
    [ jr ~round:1 ~failing:2 ~flips:2; jr ~round:2 ~failing:1 ~flips:1 ];
  Journal.close j;
  let log = Filename.concat dir "session.log" in
  (* A crash mid-append: a frame header promising more bytes than the
     file holds. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 log in
  output_string oc "\x00\x00\x01\x00torn";
  close_out oc;
  let j2 = Journal.open_ dir in
  check_int "torn tail truncated, rounds intact" 2
    (List.length (Journal.rounds j2));
  (* The journal is appendable again after truncation. *)
  Journal.append j2 (jr ~round:3 ~failing:0 ~flips:1);
  Journal.close j2;
  let j3 = Journal.open_ dir in
  check_int "post-truncation append survives reopen" 3
    (List.length (Journal.rounds j3));
  Journal.close j3

let test_signal_classes () =
  let rs fs =
    List.mapi (fun i f -> jr ~round:(i + 1) ~failing:f ~flips:1) fs
  in
  let sig3 fs = Journal.signal ~window:3 (rs fs) in
  check_bool "converging" true (sig3 [ 5; 3; 1 ] = Journal.Converging);
  check_bool "diverging" true (sig3 [ 1; 3; 5 ] = Journal.Diverging);
  check_bool "steady" true (sig3 [ 2; 2; 2 ] = Journal.Steady);
  check_bool "mixed" true (sig3 [ 2; 4; 3 ] = Journal.Mixed);
  check_bool "singleton is unknown" true (sig3 [ 2 ] = Journal.Unknown);
  check_bool "empty is unknown" true (sig3 [] = Journal.Unknown);
  (* The window looks at the tail only. *)
  check_bool "window ignores old divergence" true
    (Journal.signal ~window:2 (rs [ 1; 9; 7 ]) = Journal.Converging)

let suite =
  [
    Alcotest.test_case "composition parts" `Quick test_composition_parts;
    Alcotest.test_case "resolve_name" `Quick test_resolve_name;
    test_token_property;
    Alcotest.test_case "watch: single-edit counters" `Quick
      test_watch_counters;
    Alcotest.test_case "watch: verdict flip and flip back" `Quick
      test_watch_flip;
    Alcotest.test_case "watch: half-saved file leaves verdicts standing"
      `Quick test_watch_parse_error;
    Alcotest.test_case "watch: count-class edit flips its query" `Quick
      test_watch_count_classes;
    Alcotest.test_case "watch: duplicate spec names resolve to the first"
      `Quick test_watch_duplicate_names;
    Alcotest.test_case "watch: adding an unnamed spec re-runs nothing" `Quick
      test_watch_add_spec;
    Alcotest.test_case "watch: deleting a spec errors only its query" `Quick
      test_watch_delete_restore_spec;
    Alcotest.test_case "watch: manifest-only edits run a round" `Quick
      test_watch_manifest_edits;
    Alcotest.test_case "watch: a closure overflow leaves no stale verdict"
      `Quick test_watch_overflow;
    Alcotest.test_case "watch: a bad forall body is a diagnostic" `Quick
      test_watch_forall_body_error;
    Alcotest.test_case "watch: an unknown spec name is a diagnostic" `Quick
      test_watch_unknown_name;
    Alcotest.test_case "watch: scripted two-file session" `Quick
      test_watch_script;
    Alcotest.test_case "watch: a re-parse keeps untouched nodes" `Quick
      test_watch_reuse_work;
    Alcotest.test_case "watch: seeded edits agree with a cold batch" `Quick
      test_watch_seeded_edits;
    Alcotest.test_case "gate: an mtime put back is seen" `Quick
      test_gate_mtime_put_back;
    Alcotest.test_case "gate: a file renamed over is seen" `Quick
      test_gate_rename;
    Alcotest.test_case "gate: a rewrite inside the settling window is seen"
      `Quick test_gate_rewrite_inside_window;
    Alcotest.test_case "gate: an unsettled file is read at every poll" `Quick
      test_gate_unsettled;
    Alcotest.test_case "gate: idle polls read nothing once settled" `Quick
      test_gate_hashed;
    Alcotest.test_case "journal: restart replays history and signal" `Quick
      test_journal_restart;
    Alcotest.test_case "journal: torn tail truncated, never fatal" `Quick
      test_journal_torn_tail;
    Alcotest.test_case "journal: convergence signal classes" `Quick
      test_signal_classes;
  ]

(* Run by [soak_main], in a process of their own: see there. *)
let soaks =
  [
    Alcotest.test_case "soak: superseded parses die" `Slow
      test_soak_superseded_parses;
  ]
