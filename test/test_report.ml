(* Table rendering: alignment (including non-ASCII verdict glyphs),
   row order, section headers. *)

module Report = Posl_report.Report

let render t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.print ~out:ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_basic_table () =
  let t = Report.create [ "a"; "b" ] in
  Report.add_row t [ "1"; "two" ];
  Report.add_row t [ "three"; "4" ];
  let s = render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* rule, header, rule, two rows, rule *)
  Util.check_int "six lines" 6 (List.length lines);
  (* all lines equally wide *)
  let widths = List.map Report.utf8_length lines in
  Util.check_int "uniform width" 1 (List.length (List.sort_uniq compare widths));
  (* rows appear in insertion order *)
  Util.check_bool "row order" true
    (Util.contains_substring ~needle:"| 1" (List.nth lines 3))

let test_unicode_alignment () =
  let t = Report.create [ "check"; "verdict" ] in
  Report.add_row t [ "Read2 ⊑ Read"; "refines" ];
  Report.add_row t [ "plain ascii"; "x" ];
  let s = render t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let widths = List.map Report.utf8_length lines in
  Util.check_int "uniform width despite ⊑" 1
    (List.length (List.sort_uniq compare widths))

let test_utf8_length () =
  Util.check_int "ascii" 5 (Report.utf8_length "hello");
  Util.check_int "glyphs" 3 (Report.utf8_length "⊑‖ε")

let test_rowf () =
  let t = Report.create [ "only" ] in
  Report.add_rowf t "%d-%s" 7 "x";
  let s = render t in
  Util.check_bool "formatted row present" true
    (Util.contains_substring ~needle:"7-x" s)

(* ---------------- perf-trajectory report ---------------- *)

module Trajectory = Posl_report.Trajectory
module Json = Posl_verdict.Verdict.Json

let with_temp_dir f =
  let dir = Filename.temp_file "posl-report" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let campaign_json =
  {|{"campaign":"P8","title":"example campaign","rows":[
     {"route":"direct","total_ms":120.0,"jobs":10,"verdicts_agree":true},
     {"route":"derived","total_ms":3.0,"qps":900.0,"speedup":40.0}],
     "kinds":[
     {"route":"key","total_ms":"timing","jobs":"info","verdicts_agree":"claim"},
     {"route":"key","total_ms":"timing","qps":"rate","speedup":"rate"}]}|}

let trajectory_ok = function
  | Ok (t : Trajectory.t) -> t
  | Error e -> Alcotest.failf "Trajectory.run: %s" e

(* A live run identical to the baseline passes every check. *)
let test_trajectory_self_compare () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P8.json") campaign_json;
  write_file (Filename.concat live "BENCH_P8.json") campaign_json;
  let t =
    trajectory_ok
      (Trajectory.run ~slack:2.0 ~baseline_dir:base ~live_dir:live ())
  in
  Util.check_bool "self-compare passes" true t.Trajectory.ok;
  match t.Trajectory.campaigns with
  | [ c ] ->
      Util.check_bool "campaign status ok" true
        (c.Trajectory.status = Trajectory.Pass);
      (* gated: total_ms on both rows, qps, speedup, the boolean claim *)
      Util.check_int "five checks" 5 (List.length c.Trajectory.checks);
      Util.check_bool "claim check present" true
        (List.exists
           (fun (ck : Trajectory.check) ->
             ck.Trajectory.field = "verdicts_agree"
             && ck.Trajectory.kind = Trajectory.Claim)
           c.Trajectory.checks)
  | l -> Alcotest.failf "expected 1 campaign, got %d" (List.length l)

(* A broken boolean claim regresses the campaign whatever the slack;
   a 1.5x slower timing passes at slack 2 but a 3x one fails. *)
let test_trajectory_gates () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P8.json") campaign_json;
  write_file
    (Filename.concat live "BENCH_P8.json")
    {|{"campaign":"P8","title":"example campaign","rows":[
       {"route":"direct","total_ms":180.0,"jobs":10,"verdicts_agree":false},
       {"route":"derived","total_ms":9.5,"qps":800.0,"speedup":35.0}]}|};
  let t =
    trajectory_ok
      (Trajectory.run ~slack:2.0 ~baseline_dir:base ~live_dir:live ())
  in
  Util.check_bool "regression detected" false t.Trajectory.ok;
  let c = List.hd t.Trajectory.campaigns in
  Util.check_bool "campaign regressed" true
    (c.Trajectory.status = Trajectory.Regressed);
  let check_of field =
    match
      List.find_opt
        (fun (ck : Trajectory.check) -> ck.Trajectory.field = field)
        c.Trajectory.checks
    with
    | Some ck -> ck
    | None -> Alcotest.failf "no check for %s" field
  in
  Util.check_bool "broken claim fails hard" false (check_of "verdicts_agree").Trajectory.ok;
  Util.check_bool "1.5x slower timing inside slack 2" true
    (check_of "total_ms").Trajectory.ok;
  Util.check_bool "3x slower timing fails" false
    (let slow =
       List.find
         (fun (ck : Trajectory.check) ->
           ck.Trajectory.field = "total_ms" && ck.Trajectory.base = 3.0)
         c.Trajectory.checks
     in
     slow.Trajectory.ok);
  Util.check_bool "qps within slack" true (check_of "qps").Trajectory.ok;
  Util.check_bool "speedup within slack" true (check_of "speedup").Trajectory.ok;
  (* the renderers reflect the verdict *)
  let md = Trajectory.to_markdown t in
  Util.check_bool "markdown says REGRESSED" true
    (Util.contains_substring ~needle:"REGRESSED" md);
  Util.check_bool "markdown names the failing claim" true
    (Util.contains_substring ~needle:"verdicts_agree" md);
  match Trajectory.to_json t with
  | Json.Obj fields ->
      Util.check_bool "json ok=false" true
        (List.assoc_opt "ok" fields = Some (Json.Bool false))
  | _ -> Alcotest.fail "to_json is not an object"

(* A missing live campaign is its own status and fails the gate; an
   unmatched baseline row regresses its campaign. *)
let test_trajectory_missing_live () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P8.json") campaign_json;
  write_file (Filename.concat base "BENCH_P9.json")
    {|{"campaign":"P9","title":"two rows","rows":[
       {"route":"a","total_ms":10.0},{"route":"b","total_ms":10.0}],
       "kinds":[{"route":"key","total_ms":"timing"},
                {"route":"key","total_ms":"timing"}]}|};
  write_file (Filename.concat live "BENCH_P9.json")
    {|{"campaign":"P9","title":"two rows","rows":[
       {"route":"a","total_ms":10.0}]}|};
  let t =
    trajectory_ok (Trajectory.run ~baseline_dir:base ~live_dir:live ())
  in
  Util.check_bool "gate fails" false t.Trajectory.ok;
  (match t.Trajectory.campaigns with
  | [ p8; p9 ] ->
      Util.check_bool "P8 live absent" true
        (p8.Trajectory.status = Trajectory.Missing_live);
      Util.check_bool "P9 regressed on the vanished row" true
        (p9.Trajectory.status = Trajectory.Regressed);
      Util.check_bool "vanished row named" true
        (p9.Trajectory.unmatched_baseline = [ "route=b" ])
  | l -> Alcotest.failf "expected 2 campaigns, got %d" (List.length l));
  (* campaigns discovered from the baseline dir, in number order *)
  Util.check_bool "discovery order P8 before P9" true
    (List.map (fun (c : Trajectory.campaign) -> c.Trajectory.name)
       t.Trajectory.campaigns
    = [ "P8"; "P9" ]);
  (* no campaigns at all is the only hard error *)
  with_temp_dir @@ fun empty ->
  match Trajectory.run ~baseline_dir:empty ~live_dir:live () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty baseline dir should be an error"

(* A gated field that vanishes from the live row (a deleted timing, a
   renamed rate) fails its check as missing; an ungated one (a counter,
   a sub-millisecond timing) may vanish freely. *)
let test_trajectory_missing_field () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P8.json")
    {|{"campaign":"P8","title":"example campaign","rows":[
       {"route":"legacy","total_ms":120.0,"jobs":10,"fast_ms":0.2},
       {"route":"speedup","legacy_over_antichain":6.5}],
       "kinds":[
       {"route":"key","total_ms":"timing","jobs":"info","fast_ms":"timing"},
       {"route":"key","legacy_over_antichain":"rate"}]}|};
  write_file (Filename.concat live "BENCH_P8.json")
    {|{"campaign":"P8","title":"example campaign","rows":[
       {"route":"legacy"},
       {"route":"speedup","legacy_over_walk":6.5}]}|};
  let t =
    trajectory_ok
      (Trajectory.run ~slack:2.0 ~baseline_dir:base ~live_dir:live ())
  in
  Util.check_bool "gate fails" false t.Trajectory.ok;
  let c = List.hd t.Trajectory.campaigns in
  Util.check_bool "campaign regressed" true
    (c.Trajectory.status = Trajectory.Regressed);
  Util.check_bool "exactly the two gated fields, both failed" true
    (List.map
       (fun (ck : Trajectory.check) -> (ck.Trajectory.field, ck.Trajectory.ok))
       c.Trajectory.checks
    = [ ("total_ms", false); ("legacy_over_antichain", false) ]);
  Util.check_bool "markdown shows the field as missing" true
    (Util.contains_substring ~needle:"120 -> missing"
       (Trajectory.to_markdown t));
  Util.check_bool "json records no live value" true
    (Util.contains_substring ~needle:{|"live":null|}
       (Json.to_string (Trajectory.to_json t)))

(* Sub-millisecond baseline timings are not gated (noise). *)
let test_trajectory_noise_floor () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P5.json")
    {|{"campaign":"P5","title":"fast","rows":[{"pass":"x","total_ms":0.2}],
       "kinds":[{"pass":"key","total_ms":"timing"}]}|};
  write_file (Filename.concat live "BENCH_P5.json")
    {|{"campaign":"P5","title":"fast","rows":[{"pass":"x","total_ms":0.9}]}|};
  let t =
    trajectory_ok (Trajectory.run ~baseline_dir:base ~live_dir:live ())
  in
  Util.check_bool "4.5x on a 0.2ms baseline is not a regression" true
    t.Trajectory.ok

(* The baseline's declared kind decides, never the field's name: a
   [*_ms] field declared [info] is not checked, a [*_over_*] ratio
   declared [info] is not a rate, and [jobs] declared [work] passes at
   its baseline and below but fails at baseline + 1, whatever the
   slack. *)
let test_trajectory_kinds_not_names () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P9.json")
    {|{"campaign":"P9","title":"kinds","rows":[
       {"route":"r","total_ms":50.0,"jobs":10,"legacy_over_walk":8.0}],
       "kinds":[{"route":"key","total_ms":"info","jobs":"work",
                 "legacy_over_walk":"info"}]}|};
  let checks_at jobs =
    write_file (Filename.concat live "BENCH_P9.json")
      (Printf.sprintf
         {|{"campaign":"P9","title":"kinds","rows":[
            {"route":"r","total_ms":5000.0,"jobs":%d,"legacy_over_walk":0.1}]}|}
         jobs);
    let t =
      trajectory_ok
        (Trajectory.run ~slack:3.0 ~baseline_dir:base ~live_dir:live ())
    in
    ( t.Trajectory.ok,
      List.map
        (fun (ck : Trajectory.check) ->
          (ck.Trajectory.field, ck.Trajectory.kind, ck.Trajectory.ok))
        (List.hd t.Trajectory.campaigns).Trajectory.checks )
  in
  Util.check_bool "at the baseline: one work check, passing" true
    (checks_at 10 = (true, [ ("jobs", Trajectory.Work, true) ]));
  Util.check_bool "below the baseline passes" true (fst (checks_at 9));
  Util.check_bool "baseline + 1 fails" true
    (checks_at 11 = (false, [ ("jobs", Trajectory.Work, false) ]))

(* Rows are matched by the fields the baseline declares [key], whatever
   their names and order; a field that is not a key may differ. *)
let test_trajectory_key_fields () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P4.json")
    {|{"campaign":"P4","title":"keys","rows":[
       {"corpus":"paper","domains":1,"route":"x","wall_ms":10.0},
       {"corpus":"paper","domains":2,"route":"x","wall_ms":20.0}],
       "kinds":[
       {"corpus":"key","domains":"key","route":"info","wall_ms":"timing"},
       {"corpus":"key","domains":"key","route":"info","wall_ms":"timing"}]}|};
  write_file (Filename.concat live "BENCH_P4.json")
    {|{"campaign":"P4","title":"keys","rows":[
       {"route":"y","domains":2,"corpus":"paper","wall_ms":21.0},
       {"route":"y","domains":1,"corpus":"paper","wall_ms":11.0}]}|};
  let t =
    trajectory_ok
      (Trajectory.run ~slack:1.5 ~baseline_dir:base ~live_dir:live ())
  in
  let c = List.hd t.Trajectory.campaigns in
  Util.check_bool "every row matched" true
    (c.Trajectory.unmatched_baseline = [] && c.Trajectory.unmatched_live = []);
  Util.check_bool "keys render in the baseline's order" true
    (List.map
       (fun (ck : Trajectory.check) -> ck.Trajectory.key)
       c.Trajectory.checks
    = [ "corpus=paper domains=1"; "corpus=paper domains=2" ]);
  Util.check_bool "each row against its partner" true t.Trajectory.ok

(* A baseline that declares no kinds is refused, naming its file. *)
let test_trajectory_kindless_baseline () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  let file = Filename.concat base "BENCH_P8.json" in
  write_file file
    {|{"campaign":"P8","title":"old","rows":[{"route":"a","total_ms":1.5}]}|};
  write_file (Filename.concat live "BENCH_P8.json")
    {|{"campaign":"P8","title":"old","rows":[{"route":"a","total_ms":1.5}]}|};
  match Trajectory.run ~baseline_dir:base ~live_dir:live () with
  | Ok _ -> Alcotest.fail "a baseline without kinds should be an error"
  | Error e ->
      Util.check_bool "the error names the file" true
        (Util.contains_substring ~needle:file e)

(* P11's tracing overhead is on/off, so lower is better: declared
   [info] beside its [tracing_le_2x] claim, a fall is no longer failed
   as a "higher" rate, and a rise past 2x fails through the claim. *)
let test_trajectory_overhead_ratio () =
  with_temp_dir @@ fun base ->
  with_temp_dir @@ fun live ->
  write_file (Filename.concat base "BENCH_P11.json")
    {|{"campaign":"P11","title":"overhead","rows":[
       {"route":"summary","overhead_on_over_off":1.104,"tracing_le_2x":true}],
       "kinds":[{"route":"key","overhead_on_over_off":"info",
                 "tracing_le_2x":"claim"}]}|};
  let run_with overhead =
    write_file (Filename.concat live "BENCH_P11.json")
      (Printf.sprintf
         {|{"campaign":"P11","title":"overhead","rows":[
            {"route":"summary","overhead_on_over_off":%g,"tracing_le_2x":%b}]}|}
         overhead (overhead <= 2.));
    trajectory_ok
      (Trajectory.run ~slack:3.0 ~baseline_dir:base ~live_dir:live ())
  in
  let t = run_with 0.3 in
  Util.check_bool "cheaper tracing passes" true t.Trajectory.ok;
  Util.check_bool "the ratio is not checked" true
    (List.map
       (fun (ck : Trajectory.check) -> ck.Trajectory.field)
       (List.hd t.Trajectory.campaigns).Trajectory.checks
    = [ "tracing_le_2x" ]);
  Util.check_bool "dearer than 2x fails on the claim" false
    (run_with 2.5).Trajectory.ok

let suite =
  [
    Alcotest.test_case "basic table" `Quick test_basic_table;
    Alcotest.test_case "unicode alignment" `Quick test_unicode_alignment;
    Alcotest.test_case "utf8 length" `Quick test_utf8_length;
    Alcotest.test_case "formatted rows" `Quick test_rowf;
    Alcotest.test_case "trajectory: self-compare passes" `Quick
      test_trajectory_self_compare;
    Alcotest.test_case "trajectory: claims and slack gates" `Quick
      test_trajectory_gates;
    Alcotest.test_case "trajectory: missing live and vanished rows" `Quick
      test_trajectory_missing_live;
    Alcotest.test_case "trajectory: a missing gated field fails" `Quick
      test_trajectory_missing_field;
    Alcotest.test_case "trajectory: noise floor" `Quick
      test_trajectory_noise_floor;
    Alcotest.test_case "trajectory: the declared kind gates, not the name"
      `Quick test_trajectory_kinds_not_names;
    Alcotest.test_case "trajectory: key fields form the row identity" `Quick
      test_trajectory_key_fields;
    Alcotest.test_case "trajectory: a baseline without kinds is an error"
      `Quick test_trajectory_kindless_baseline;
    Alcotest.test_case "trajectory: the overhead ratio is not a rate" `Quick
      test_trajectory_overhead_ratio;
  ]
