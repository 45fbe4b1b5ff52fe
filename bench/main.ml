(* The experiment harness: regenerates every checkable artefact of the
   paper (its figure, its examples, its lemmas and theorems — the paper
   has no measurement tables, see EXPERIMENTS.md) and measures the cost
   of the library's decision procedures.

   Output, in order:
     1. reproduction verdicts, one table per experiment family
        (E1..E13 of DESIGN.md): paper claim vs measured verdict;
     2. performance campaigns P1..P11, each printed as a table and
        written as BENCH_<name>.json from the same rows;
     3. Bechamel micro-benchmarks: one Test.make per experiment,
        reporting ns/op with the goodness of fit.

   Run with: dune exec bench/main.exe *)

open Bechamel
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Internal = Posl_core.Internal
module Component = Posl_core.Component
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Oracle = Posl_oracle.Oracle
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat
module Report = Posl_report.Report
module Trajectory = Posl_report.Trajectory
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Plan = Posl_engine.Plan
module Manifest = Posl_engine.Manifest
module Counters = Posl_engine.Counters
module Edigest = Posl_engine.Digest
module Store = Posl_store.Store
module Telemetry = Posl_telemetry.Telemetry
module Runtime = Posl_telemetry.Runtime
module Tlog = Posl_telemetry.Log
module Pmetrics = Posl_telemetry.Metrics
module Verdict = Posl_verdict.Verdict
module Json = Posl_verdict.Verdict.Json
module Lang = Posl_lang.Lang
module Serve = Posl_serve.Serve
module Client = Posl_serve.Client
module Wire = Posl_serve.Wire
module Loadgen = Posl_serve.Loadgen
module Watch = Posl_watch.Watch

(* Machine-readable campaign trajectories: every performance campaign
   (P1..P11) lands as one BENCH_<name>.json under [--out DIR] (default
   [_build/bench]) so CI and plotting scripts never have to scrape the
   tables.  With [--commit-snapshot], the P4..P11 trajectories are also
   snapshotted next to the sources (repo root, when run from it) so a
   PR can deliberately refresh the committed baselines the [report]
   perf gate compares against. *)
let out_dir =
  let dir = ref (Filename.concat "_build" "bench") in
  Array.iteri
    (fun i a ->
      if a = "--out" && i + 1 < Array.length Sys.argv then
        dir := Sys.argv.(i + 1))
    Sys.argv;
  !dir

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_campaign doc ~name =
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" name) in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "  [json -> %s]@." path

let universe = Spec.adequate_universe Ex.all_specs
let ctx = Tset.ctx universe
let depth = 6
let rand = Random.State.make [| 0x5e5_1ab |]
let generate n gen = QCheck2.Gen.generate ~rand ~n gen

let pp_str pp v = Format.asprintf "%a" pp v

let verdict_of_refine expected g' g =
  let v = Refine.verdict ~depth ctx g' g in
  let measured = Verdict.to_string v in
  let ok = Verdict.is_holds v = expected in
  (measured, ok)

let status ok = if ok then "agrees" else "DISAGREES"

(* ------------------------------------------------------------------ *)
(* Section 1: reproduction verdicts                                     *)
(* ------------------------------------------------------------------ *)

(* E1 — Fig. 1: event classification of two overlapping interface
   specifications.  The figure's point: composition hides all events
   between the two objects, including events in neither alphabet ("we
   hide more than we can see"). *)
let e1 () =
  Report.section "E1 (Fig. 1): hiding classification for Client ‖ WriteAcc";
  let g = Ex.client and d = Ex.write_acc in
  let internal = Internal.pair (Oid.v "c") (Oid.v "o") in
  let both = Eventset.inter (Spec.alpha g) (Spec.alpha d) in
  let one_sided =
    Eventset.diff
      (Eventset.inter internal (Eventset.union (Spec.alpha g) (Spec.alpha d)))
      both
  in
  let unseen =
    Eventset.diff internal (Eventset.union (Spec.alpha g) (Spec.alpha d))
  in
  let t = Report.create [ "event class"; "paper"; "measured"; "status" ] in
  let row name expected_nonempty es =
    let nonempty = not (Eventset.is_empty es) in
    Report.add_row t
      [
        name;
        (if expected_nonempty then "non-empty" else "empty");
        (if nonempty then "non-empty" else "empty");
        status (nonempty = expected_nonempty);
      ]
  in
  (* Internal events known to one spec only (stapled arrows of Fig. 1):
     the client's W-calls to o are in both alphabets here, so the
     one-sided class contains e.g. WriteAcc's OW/CW from c. *)
  row "internal ∩ α(Γ) ∩ α(∆) (shared)" true (Eventset.inter internal both);
  row "internal, one-sided" true one_sided;
  row "internal, in neither alphabet (\"hide more than we see\")" true unseen;
  row "visible after composition"
    true
    (Spec.alpha (Compose.interface g d));
  Report.print t

(* E2/E3 — the refinement lattice of Examples 1-3. *)
let e2_e3 () =
  Report.section "E2-E3 (Examples 1-3): the viewpoint refinement lattice";
  let t = Report.create [ "check"; "paper"; "measured"; "status" ] in
  let row name expected g' g =
    let measured, ok = verdict_of_refine expected g' g in
    Report.add_row t
      [ name; (if expected then "refines" else "refuted"); measured; status ok ]
  in
  row "Read2 ⊑ Read" true Ex.read2 Ex.read;
  row "Read ⊑ Read2" false Ex.read Ex.read2;
  row "RW ⊑ Read" true Ex.rw Ex.read;
  row "RW ⊑ Write" true Ex.rw Ex.write;
  row "RW ⊑ Read2" false Ex.rw Ex.read2;
  row "WriteAcc ⊑ Write" true Ex.write_acc Ex.write;
  row "RW2 ⊑ RW" true Ex.rw2 Ex.rw;
  row "RW2 ⊑ WriteAcc" true Ex.rw2 Ex.write_acc;
  row "Client2 ⊑ Client" true Ex.client2 Ex.client;
  Report.print t

(* E4/E5/E6 — composition, projection, deadlock. *)
let e4_e5_e6 () =
  Report.section "E4-E6 (Examples 4-6): composition and deadlock";
  let t = Report.create [ "check"; "paper"; "measured"; "status" ] in
  let comp = Compose.interface Ex.client Ex.write_acc in
  let alphabet = Spec.concrete_alphabet universe comp in
  (* E4a: observable behaviour is OK*. *)
  let ok_star =
    Tset.prs
      (Regex.star
         (Regex.atom
            (Epat.make ~caller:(Epat.Const (Oid.v "c"))
               ~callee:(Epat.Const (Oid.v "om"))
               (Mset.singleton (Mth.v "OK")))))
  in
  (match Bmc.check_equal ctx ~alphabet ~depth ~left:(Spec.tset comp) ~right:ok_star with
  | Bmc.Holds c ->
      Report.add_row t
        [
          "T(Client‖WriteAcc) = ⟨c,o',OK⟩*";
          "equal";
          Format.asprintf "equal [%a]" Bmc.pp_confidence c;
          status true;
        ]
  | Bmc.Refuted _ ->
      Report.add_row t
        [ "T(Client‖WriteAcc) = ⟨c,o',OK⟩*"; "equal"; "NOT equal"; status false ]);
  (* E4b: no deadlock with projection. *)
  let dl = Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset comp) in
  Report.add_row t
    [
      "Client‖WriteAcc deadlock";
      "none";
      (match dl with None -> "none" | Some h -> pp_str Trace.pp h);
      status (dl = None);
    ];
  (* E4c: ablation — without projection the composition dies at once. *)
  let noproj = Compose.interface_noproj Ex.client Ex.write_acc in
  let np_alpha = Spec.concrete_alphabet universe noproj in
  let dl_np = Bmc.find_deadlock ctx ~alphabet:np_alpha ~depth (Spec.tset noproj) in
  Report.add_row t
    [
      "ablation: no-projection composition";
      "deadlock at ε";
      (match dl_np with
      | Some h when Trace.is_empty h -> "deadlock at ε"
      | Some h -> Format.asprintf "deadlock after %a" Trace.pp h
      | None -> "no deadlock");
      status (match dl_np with Some h -> Trace.is_empty h | None -> false);
    ];
  (* E5: Client2‖WriteAcc = {ε} and still refines. *)
  let comp2 = Compose.interface Ex.client2 Ex.write_acc in
  let a2 = Spec.concrete_alphabet universe comp2 in
  let counts = Bmc.count_traces ctx ~alphabet:a2 ~depth:4 (Spec.tset comp2) in
  let only_eps = Array.to_list counts = [ 1; 0; 0; 0; 0 ] in
  Report.add_row t
    [
      "T(Client2‖WriteAcc)";
      "{ε}";
      (if only_eps then "{ε}" else "larger");
      status only_eps;
    ];
  let m, ok5 = verdict_of_refine true comp2 comp in
  Report.add_row t
    [ "Client2‖WriteAcc ⊑ Client‖WriteAcc (trivially)"; "refines"; m; status ok5 ];
  (* E6: T(RW2‖Client) = T(WriteAcc‖Client). *)
  let left = Compose.interface Ex.rw2 Ex.client in
  let right = Compose.interface Ex.write_acc Ex.client in
  let e6 = Theory.tset_equal ctx ~depth left right in
  Report.add_row t
    [
      "T(RW2‖Client) = T(WriteAcc‖Client)";
      "equal";
      pp_str Theory.pp_outcome e6;
      status (Theory.is_pass e6);
    ];
  Report.print t

(* A deterministic component for E10 (Lemma 13): the ping/note server of
   the test suite. *)
let lemma13_component () =
  let s = Oid.v "o" and t_obj = Oid.v "om" in
  let m_ping = Mth.v "R" and m_note = Mth.v "OK" in
  let behaviour =
    Tset.prs
      (Regex.star
         (Regex.seq
            (Regex.atom
               (Epat.make
                  ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                  ~callee:(Epat.Const s)
                  (Mset.singleton m_ping)))
            (Regex.atom
               (Epat.make ~caller:(Epat.Const s) ~callee:(Epat.Const t_obj)
                  (Mset.singleton m_note)))))
  in
  let component =
    Component.of_objects
      [
        Component.model_object ~oid:s behaviour;
        Component.model_object ~oid:t_obj Tset.all;
      ]
  in
  let ping =
    Eventset.calls
      ~callers:(Oset.cofin_of_list [ s; t_obj ])
      ~callees:(Oset.singleton s) (Mset.singleton m_ping)
  in
  let view1 = Spec.v ~name:"PingAny" ~objs:[ s ] ~alpha:ping Tset.all in
  let view2 =
    Spec.v ~name:"PingSeq" ~objs:[ s ] ~alpha:ping
      (Tset.prs
         (Regex.star
            (Regex.atom
               (Epat.make
                  ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                  ~callee:(Epat.Const s)
                  (Mset.singleton m_ping)))))
  in
  (component, view1, view2)

(* E7-E13 — randomized theorem campaigns. *)
let theorem_campaigns () =
  Report.section
    "E7-E13: theorem campaigns (randomized; substitutes for the PVS proofs)";
  let sc = Gen.default_scenario in
  let gctx = Tset.ctx sc.Gen.universe in
  let cdepth = 4 in
  let t =
    Report.create [ "proposition"; "instances"; "pass"; "vacuous"; "fail" ]
  in
  let campaign name n gen check =
    let pass = ref 0 and vac = ref 0 and fail = ref 0 in
    List.iter
      (fun inst ->
        let o = check inst in
        if Theory.is_pass o then incr pass
        else if Theory.is_vacuous o then incr vac
        else incr fail)
      (generate n gen);
    Report.add_row t
      [ name; string_of_int n; string_of_int !pass; string_of_int !vac;
        string_of_int !fail ]
  in
  let open QCheck2.Gen in
  let k0 = Oid.v "k0" and k1 = Oid.v "k1" and r0 = Oid.v "r0" in
  campaign "Property 5: Γ‖Γ = Γ" 60 (Gen.interface_spec sc k0) (fun g ->
      Theory.property5 gctx ~depth:cdepth g);
  campaign "Lemma 6: Γ₁‖Γ₂ ⊑ Γᵢ" 40
    (pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
    (fun (g1, g2) -> Theory.lemma6_refines gctx ~depth:cdepth g1 g2);
  campaign "Theorem 7: Γ′⊑Γ ⇒ Γ′‖∆ ⊑ Γ‖∆" 40
    (let* g = Gen.interface_spec sc k0 in
     let* g' = Gen.refinement_of sc g in
     let* d = Gen.interface_spec sc k1 in
     pure (g', g, d))
    (fun (gamma', gamma, delta) ->
      Theory.theorem7 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  (let component, view1, view2 = lemma13_component () in
   campaign "Lemma 13: soundness preserved" 1 (pure ()) (fun () ->
       Theory.lemma13 ctx ~depth:5 component view1 view2));
  let gen_triple ~new_objs =
    let* g = Gen.spec sc [ k0 ] in
    let* g' = Gen.refinement_of ~new_objs sc g in
    let* d = Gen.spec sc [ k1 ] in
    pure (g', g, d)
  in
  campaign "Lemma 15: alphabet preserved" 40 (gen_triple ~new_objs:[ r0 ])
    (fun (gamma', gamma, delta) -> Theory.lemma15 ~gamma' ~gamma ~delta);
  campaign "Theorem 16: proper compositional refinement" 30
    (gen_triple ~new_objs:[ r0 ])
    (fun (gamma', gamma, delta) ->
      Theory.theorem16 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  campaign "Property 17: composability preserved" 40 (gen_triple ~new_objs:[])
    (fun (gamma', gamma, delta) -> Theory.property17 ~gamma' ~gamma ~delta);
  campaign "Theorem 18: no-new-object case" 30 (gen_triple ~new_objs:[])
    (fun (gamma', gamma, delta) ->
      Theory.theorem18 gctx ~depth:cdepth ~gamma' ~gamma ~delta);
  campaign "Filter law h/S₁\\S₂ = h\\S₂/(S₁−S₂)" 200
    (triple (Gen.trace sc) (Gen.eventset sc) (Gen.eventset sc))
    (fun (h, s1, s2) ->
      if Theory.filter_law s1 s2 h then
        Posl_verdict.Verdict.holds ~confidence:Bmc.Exact ()
      else
        Posl_verdict.Verdict.refuted
          [
            Posl_verdict.Verdict.Law_violation
              { law = "filter law h/S₁\\S₂ = h\\S₂/(S₁−S₂)"; trace = h };
          ]);
  Report.print t;
  (* The negative side: properness is necessary.  A deterministic
     improper instance must break the conclusion of Theorem 16. *)
  let m = Mth.v "m0" in
  let mon = Oid.v "e1" in
  let delta =
    Spec.v ~name:"D" ~objs:[ k1 ]
      ~alpha:
        (Eventset.calls ~callers:(Oset.singleton k1)
           ~callees:(Oset.singleton mon) (Mset.singleton m))
      Tset.all
  in
  let gamma =
    Spec.v ~name:"G" ~objs:[ k0 ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.of_list [ Oid.v "e0" ])
           ~callees:(Oset.singleton k0) (Mset.singleton m))
      Tset.all
  in
  let gamma' =
    Spec.v ~name:"G'" ~objs:[ k0; mon ] ~alpha:(Spec.alpha gamma)
      (Spec.tset gamma)
  in
  let broke =
    match (Compose.compose gamma' delta, Compose.compose gamma delta) with
    | Ok rc, Ok ac ->
        not (Refine.refines ~depth:cdepth gctx rc ac)
    | _ -> false
  in
  Format.printf
    "ablation: dropping properness breaks Theorem 16's conclusion: %s@."
    (if broke then "yes (as the paper motivates)" else "NO (unexpected)")

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* E14 — the liveness extension (the paper's future work, Section 9):
   Example 5's phenomenon as an analysis. *)
let e14 () =
  Report.section
    "E14: liveness extension (Sec. 9 future work) — deadlock preservation";
  let t = Report.create [ "check"; "expected"; "measured"; "status" ] in
  let module Live = Posl_live.Live in
  (* Client → Client2 breaks deadlock freedom of the composition. *)
  (match
     Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.client2
       ~gamma:Ex.client ~delta:Ex.write_acc
   with
  | Error h ->
      Report.add_row t
        [
          "Client→Client2 preserves ‖WriteAcc liveness";
          "broken (Example 5)";
          Format.asprintf "fresh deadlock after %a" Trace.pp h;
          status true;
        ]
  | Ok () ->
      Report.add_row t
        [
          "Client→Client2 preserves ‖WriteAcc liveness";
          "broken (Example 5)";
          "preserved";
          status false;
        ]);
  (* WriteAcc → RW2 is harmless (Example 6's refinement). *)
  (match
     Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.rw2
       ~gamma:Ex.write_acc ~delta:Ex.client
   with
  | Ok () ->
      Report.add_row t
        [
          "WriteAcc→RW2 preserves ‖Client liveness";
          "preserved";
          "preserved";
          status true;
        ]
  | Error h ->
      Report.add_row t
        [
          "WriteAcc→RW2 preserves ‖Client liveness";
          "preserved";
          Format.asprintf "deadlock after %a" Trace.pp h;
          status false;
        ]);
  (* Live refinement rejects Client2 under a progress obligation. *)
  let mth_events m =
    Eventset.calls ~args:Posl_sets.Argsel.full ~callers:Oset.full
      ~callees:Oset.full (Mset.singleton m)
  in
  let ow_answerable =
    Live.obligation ~name:"ow-answerable" ~trigger:(mth_events Ex.m_ow)
      ~response:(mth_events Ex.m_cw)
  in
  let refined =
    Live.v ~deadlock_free:false ~obligations:[ ow_answerable ] Ex.client2
  in
  let abstract = Live.v ~deadlock_free:false Ex.client in
  (let v = Live.refine ~depth ctx refined abstract in
   let module V = Posl_verdict.Verdict in
   let liveness_rejection =
     (not (V.is_holds v))
     && List.exists
          (function
            | V.Unanswerable _ | V.Deadlock _ -> true
            | _ -> false)
          v.V.evidence
   in
   if liveness_rejection then
     Report.add_row t
       [
         "Client2 ⊑live Client (with obligation)";
         "rejected";
         "rejected (obligation unanswerable)";
         status true;
       ]
   else
     Report.add_row t
       [
         "Client2 ⊑live Client (with obligation)";
         "rejected";
         "accepted";
         status false;
       ]);
  Report.print t

(* E15 — non-trivial consistency (Section 7's discussion of Boiten et
   al.). *)
let e15 () =
  Report.section "E15: non-trivial consistency (Sec. 7)";
  let module Consistency = Posl_core.Consistency in
  let t = Report.create [ "pair"; "expected"; "measured"; "status" ] in
  let row name expected a b =
    let v = Consistency.verdict ~depth ctx a b in
    let module V = Posl_verdict.Verdict in
    let measured = V.to_string v in
    let got =
      match v.V.status with
      | V.Holds -> `Consistent
      | V.Refuted -> `Trivial
      | V.Vacuous -> `Incomparable
    in
    Report.add_row t
      [
        name;
        (match expected with
        | `Consistent -> "consistent"
        | `Trivial -> "only trivial"
        | `Incomparable -> "not composable");
        measured;
        status (got = expected);
      ]
  in
  row "Write vs Read2 (mergeable viewpoints)" `Consistent Ex.write Ex.read2;
  row "Read vs Write" `Consistent Ex.read Ex.write;
  let mk_order name first second =
    let a m =
      Regex.atom
        (Epat.make ~caller:(Epat.Const Ex.c) ~callee:(Epat.Const Ex.o)
           (Mset.singleton m))
    in
    Spec.v ~name ~objs:[ Ex.o ]
      ~alpha:
        (Eventset.calls
           ~callers:(Oset.cofin_of_list [ Ex.o ])
           ~callees:(Oset.singleton Ex.o)
           (Mset.of_list [ Ex.m_ow; Ex.m_cw ]))
      (Tset.prs (Regex.star (Regex.seq (a first) (a second))))
  in
  row "contradicting open/close orders" `Trivial
    (mk_order "OwFirst" Ex.m_ow Ex.m_cw)
    (mk_order "CwFirst" Ex.m_cw Ex.m_ow);
  Report.print t

(* A1/A2 — design ablations called out in DESIGN.md. *)
let ablations () =
  Report.section "Ablations: design choices";
  (* A1: DFA-backed monitors vs the naive denotational semantics
     (Brzozowski derivatives re-run per membership query) on RW
     membership, sweeping the trace length.  Derivative terms grow with
     the trace, so the naive route is superlinear; monitor stepping is
     linear, which is what exploration needs.  The crossover sits at a
     few dozen events. *)
  let t1 =
    Report.create
      [ "A1: trace length"; "naive (deriv) ms"; "monitor (DFA) ms"; "speedup" ]
  in
  let ow = Posl_trace.Event.make ~caller:Ex.c ~callee:Ex.o Ex.m_ow in
  let cw = Posl_trace.Event.make ~caller:Ex.c ~callee:Ex.o Ex.m_cw in
  let w =
    Posl_trace.Event.make
      ~arg:(Posl_ident.Value.v "d1")
      ~caller:Ex.c ~callee:Ex.o Ex.m_w
  in
  let cycle = [ ow; w; w; w; cw ] in
  let long n = Trace.of_list (List.concat (List.init n (fun _ -> cycle))) in
  let tset = Spec.tset Ex.rw in
  ignore (Tset.mem ctx tset Trace.empty);
  (* warm the prs cache *)
  List.iter
    (fun n ->
      let h = long n in
      let reps = 10 in
      let _, naive_ms =
        wall (fun () ->
            for _ = 1 to reps do
              ignore (Tset.mem_naive ctx tset h)
            done)
      in
      let _, monitor_ms =
        wall (fun () ->
            for _ = 1 to reps do
              ignore (Tset.mem ctx tset h)
            done)
      in
      Report.add_row t1
        [
          string_of_int (Trace.length h);
          Printf.sprintf "%.2f" (naive_ms /. float_of_int reps);
          Printf.sprintf "%.2f" (monitor_ms /. float_of_int reps);
          Printf.sprintf "%.1fx" (naive_ms /. Float.max 0.001 monitor_ms);
        ])
    [ 2; 10; 40; 100; 300 ];
  Report.print t1;
  let t = Report.create [ "ablation"; "baseline"; "ours"; "speedup" ] in
  (* A2: symbolic subset vs concretise-and-compare on the same pair of
     alphabets (the concrete route is also *wrong* for infinite sets —
     it can only see the sampled universe). *)
  let a = Spec.alpha Ex.write and b = Spec.alpha Ex.rw in
  let _, sym_ms =
    wall (fun () ->
        for _ = 1 to 1000 do
          ignore (Eventset.subset a b)
        done)
  in
  let _, conc_ms =
    wall (fun () ->
        for _ = 1 to 1000 do
          let sa = Eventset.sample universe a and sb = Eventset.sample universe b in
          ignore
            (List.for_all
               (fun e -> List.exists (Posl_trace.Event.equal e) sb)
               sa)
        done)
  in
  Report.add_row t
    [
      "A2: alphabet inclusion α(Write) ⊆ α(RW), 1000x";
      Printf.sprintf "concretise %.2f ms (unsound for ∞ sets)" conc_ms;
      Printf.sprintf "symbolic %.2f ms (exact)" sym_ms;
      Printf.sprintf "%.1fx" (conc_ms /. Float.max 0.001 sym_ms);
    ];
  Report.print t

(* ------------------------------------------------------------------ *)
(* Section 2: performance campaigns                                     *)
(* ------------------------------------------------------------------ *)

(* A campaign row is a list of (field, kind, cell): the row of its
   BENCH_<name>.json, fields in file order, each with the kind that
   decides how [posl-check report] gates it (written to the file's
   "kinds" list).  Its table is rendered from the same rows, one column
   per field name in first-seen order. *)
type cell = I of int | F of float | B of bool | S of string | Rows of row list
and row = (string * Trajectory.kind * cell) list

(* One constructor per kind.  A field's kind is chosen per row: the same
   field may be gated in one row and [info] in another. *)
let key name c = (name, Trajectory.Key, c)
let claim name b = (name, Trajectory.Claim, B b)
let timing name ms = (name, Trajectory.Timing, F ms)
let rate name x = (name, Trajectory.Rate, F x)
let work name n = (name, Trajectory.Work, I n)
let info name c = (name, Trajectory.Info, c)

type campaign = {
  name : string;  (* BENCH_<name>.json *)
  title : string;
  snapshot : bool;  (* copied next to the sources by --commit-snapshot *)
  run : unit -> row list;  (* [] when the campaign skipped itself *)
}

let rec json_of_cell = function
  | I i -> Json.Int i
  | F f -> Json.Float f
  | B b -> Json.Bool b
  | S s -> Json.Str s
  | Rows rows ->
      Json.List
        (List.map
           (fun row ->
             Json.Obj (List.map (fun (k, _, c) -> (k, json_of_cell c)) row))
           rows)

let text_of_cell = function
  | S s -> s
  | Rows rows -> Printf.sprintf "(%d rows)" (List.length rows)
  | c -> Json.to_string (json_of_cell c)

let run_campaign c =
  Report.section (Printf.sprintf "%s: %s" c.name c.title);
  match c.run () with
  | [] -> ()
  | rows ->
      let columns =
        List.fold_left
          (fun cols row ->
            cols
            @ List.filter_map
                (fun (k, _, _) -> if List.mem k cols then None else Some k)
                row)
          [] rows
      in
      let t = Report.create columns in
      List.iter
        (fun row ->
          Report.add_row t
            (List.map
               (fun k ->
                 match List.find_opt (fun (k', _, _) -> k' = k) row with
                 | Some (_, _, c) -> text_of_cell c
                 | None -> "")
               columns))
        rows;
      Report.print t;
      write_campaign ~name:c.name
        (Trajectory.document ~name:c.name ~title:c.title
           (List.map
              (List.map (fun (k, kind, c) -> (k, kind, json_of_cell c)))
              rows))

(* Cold totals at this scale are tens of milliseconds, where timer and
   allocator noise moves single runs by 2×; a timed pass [f] (returning
   its result and milliseconds) is therefore reported as the best of
   [reps] — the minimum-of-N estimator standard for cold-cost
   comparisons. *)
let best_of ?(reps = 5) f =
  let best = ref (f ()) in
  for _ = 2 to reps do
    let (_, ms) as r = f () in
    if ms < snd !best then best := r
  done;
  !best

(* The spans recorded while [f] runs, aggregated by name into (name,
   count, total ns), largest total first. *)
let span_totals f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  ignore (f ());
  Telemetry.set_enabled false;
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.span) ->
      let c, tot =
        Option.value (Hashtbl.find_opt tbl s.Telemetry.name) ~default:(0, 0)
      in
      Hashtbl.replace tbl s.Telemetry.name (c + 1, tot + s.Telemetry.dur_ns))
    (Telemetry.spans ());
  Telemetry.reset ();
  Hashtbl.fold (fun name (c, tot) acc -> (name, c, tot) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

(* Every ordered pair of distinct specs: over the paper cast, the
   56-pair corpus of P4, P7 and P8. *)
let ordered_pairs specs =
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g -> if g' == g then None else Some (g', g))
        specs)
    specs

(* P1 — bounded-exploration scaling: reachable states and wall time per
   depth of the product walk cut at that depth. *)
let p1 () =
  let alphabet = Spec.concrete_alphabet universe Ex.rw in
  List.map
    (fun d ->
      let states =
        Bmc.count_states ctx ~alphabet ~depth:d (Spec.tset Ex.rw)
      in
      let v, ms =
        wall (fun () ->
            Bmc.check_inclusion_antichain ~complete:false ctx ~alphabet
              ~depth:d ~lhs:(Spec.tset Ex.rw) ~proj:(Spec.alpha Ex.write)
              ~rhs:(Spec.tset Ex.write))
      in
      [
        key "depth" (I d);
        work "reachable_states" states;
        timing "serial_ms" ms;
        (* not "verdict": that key is reserved for verdict objects,
           which `posl-check json` round-trips *)
        info "outcome" (S (pp_str (Bmc.pp_verdict Trace.pp) v));
      ])
    [ 2; 3; 4; 5; 6 ]

(* P2 — automata pipeline scaling: regex → NFA → DFA → minimise, with
   growing environment (alphabet) size. *)
let p2 () =
  List.map
    (fun n_env ->
      let extra =
        List.init n_env (fun i -> Oid.v (Printf.sprintf "env%d" i))
      in
      let u =
        Posl_ident.Universe.make
          ~objects:(Oid.v "o" :: extra)
          ~methods:[ Mth.v "OW"; Mth.v "CW"; Mth.v "W" ]
          ~values:[ Posl_ident.Value.v "d1" ]
      in
      let ground = Regex.expand u Ex.write_regex in
      let events = Array.of_list (Eventset.sample u (Regex.atom_union ground)) in
      let (nfa, dfa, mini), ms =
        wall (fun () ->
            let nfa = Regex.to_nfa ~events ground in
            let nfa = Posl_automata.Nfa.prefix_close nfa in
            let dfa = Posl_automata.Nfa.to_dfa nfa in
            let mini = Posl_automata.Dfa.minimize dfa in
            (nfa, dfa, mini))
      in
      [
        key "env_objects" (I n_env);
        work "alphabet" (Array.length events);
        work "nfa_states" (Posl_automata.Nfa.n_states nfa);
        work "dfa_states" (Posl_automata.Dfa.n_states dfa);
        work "min_states" (Posl_automata.Dfa.n_states mini);
        timing "ms" ms;
      ])
    [ 1; 2; 3; 4; 6; 8 ]

(* P3 — symbolic set algebra scaling: decision procedures on rectangle
   unions of growing width. *)
let p3 () =
  let sc = Gen.default_scenario in
  List.map
    (fun w ->
      let sets =
        generate 20 (Gen.eventset ~max_width:w sc)
        |> List.filter (fun s -> not (Eventset.is_empty s))
      in
      let pairs =
        match sets with
        | a :: rest -> List.map (fun b -> (a, b)) rest
        | [] -> []
      in
      let timed f =
        let _, ms =
          wall (fun () ->
              List.iter (fun (a, b) -> ignore (f a b)) pairs)
        in
        ms /. float_of_int (max 1 (List.length pairs))
      in
      let union_ms = timed Eventset.union in
      let inter_ms = timed Eventset.inter in
      let diff_ms = timed (fun a b -> Eventset.diff a b) in
      let subset_ms = timed (fun a b -> Eventset.subset a b) in
      [
        key "width" (I w);
        timing "union_ms" union_ms;
        timing "inter_ms" inter_ms;
        timing "diff_ms" diff_ms;
        timing "subset_ms" subset_ms;
      ])
    [ 2; 4; 8; 16 ]

(* P4 — engine batch throughput: every ordered refinement pair over the
   paper cast, scheduled across 1 and 2 domains, cold then warm.  Each
   pass is the best of 5: a cold repetition answers the batch on a
   fresh session (empty verdict cache, no contexts), and the warm pass
   re-answers it on a filled session, from the verdict cache.  A warm
   pass is a few ms of work, so a single run would let one descheduled
   vCPU decide the row.  More domains than a 2-vCPU runner has would
   time its scheduler; test_engine checks compile sharing at 4
   domains. *)
let engine_batch ~depth =
  List.map
    (fun (g', g) ->
      Engine.request ~depth ~universe
        (Job.Refine { refined = g'; abstract = g }))
    (ordered_pairs Ex.all_specs)

let p4 () =
  let batch = engine_batch ~depth:4 in
  List.concat_map
    (fun domains ->
      let pass session =
        let _, (s : Engine.stats) = Engine.run_jobs ~domains session batch in
        (s, s.wall_ms)
      in
      (* One domain compiles each distinct regex once; two may both
         compile one before either lands it (a benign duplicate), so
         the count is gated at one domain only. *)
      let compiles name n =
        if domains = 1 then work name n else info name (I n)
      in
      let row label (s : Engine.stats) =
        [
          key "cache" (S label);
          key "domains" (I domains);
          work "jobs" s.jobs;
          timing "wall_ms" s.wall_ms;
          info "cache_hits" (I s.cache_hits);
          compiles "dfa_compiles" s.dfa_compiles;
          info "dfa_cache_hits" (I s.dfa_cache_hits);
          timing "busy_ms" s.busy_ms;
          info "utilization" (F s.utilization);
        ]
      in
      (* the cold row shows compiles staying at the distinct-regex
         count whatever the domain count (one context shared by all
         workers), give or take a duplicate *)
      let (filled, cold), _ =
        best_of (fun () ->
            let session = Engine.session () in
            let s, ms = pass session in
            ((session, s), ms))
      in
      let warm, _ = best_of (fun () -> pass filled) in
      [ row "cold" cold; row "warm" warm ])
    [ 1; 2 ]

(* P5 — the persistent verdict store across process lifetimes: the same
   paper-corpus batch cold (empty store, computes and write-behinds),
   warm in-process (the in-memory cache answers, the store is not even
   consulted), and warm across processes (fresh handle, cold in-memory
   cache — every distinct digest answered from disk).  The
   across-process pass is simulated by closing and reopening the store
   with a fresh in-memory cache, which is exactly what a new
   posl-check invocation does. *)
let p5 () =
  let batch = engine_batch ~depth:4 in
  let stores = ref 0 in
  let fresh_dir () =
    incr stores;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "posl-bench-store-%d-%d" (Unix.getpid ()) !stores)
  in
  let remove dir =
    try
      Sys.remove (Store.log_path dir);
      Sys.remove (Filename.concat dir "lock");
      Unix.rmdir dir
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  let with_store dir f =
    let s = Store.open_ dir in
    Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)
  in
  let pass label session =
    let _, (s : Engine.stats) = Engine.run_jobs ~domains:1 session batch in
    ( [
        key "pass" (S label);
        work "jobs" s.jobs;
        timing "wall_ms" s.wall_ms;
        work "computed" s.cache_misses;
        info "cache_hits" (I s.cache_hits);
        info "store_hits" (I s.store_hits);
        work "store_writes" s.store_writes;
      ],
      s.wall_ms )
  in
  (* Each pass is the best of 5, every repetition from the same state:
     a cold pass gets an empty store and a fresh session, an
     across-process pass a reopened store and a fresh session. *)
  let cold, _ =
    best_of (fun () ->
        let dir = fresh_dir () in
        Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
        with_store dir (fun s -> pass "cold" (Engine.session ~store:s ())))
  in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  let warm, _ =
    with_store dir (fun s ->
        let session = Engine.session ~store:s () in
        ignore (pass "cold" session);
        best_of (fun () -> pass "warm in-process" session))
  in
  (* a new process: new store handle, fresh session *)
  let across, _ =
    best_of (fun () ->
        with_store dir (fun s ->
            pass "warm across-process" (Engine.session ~store:s ())))
  in
  [ cold; warm; across ]

(* P6 — where the time actually goes: the span-level decomposition of
   one cold engine batch, the fastest of 5.  Telemetry is switched on
   for the batch only; the rows aggregate the resulting trace by span
   name.  This is the observability counterpart of P4's wall-clock
   row: the same run, broken down by subsystem instead of summed. *)
let p6 () =
  let batch = engine_batch ~depth:4 in
  let spans, _ =
    best_of (fun () ->
        wall (fun () ->
            span_totals (fun () -> Engine.run_batch ~domains:1 batch)))
  in
  spans
  |> List.map (fun (name, c, tot) ->
         let total_ms = float_of_int tot /. 1e6 in
         [
           key "span" (S name);
           work "count" c;
           timing "total_ms" total_ms;
           timing "mean_ms" (total_ms /. float_of_int (max 1 c));
         ])

(* P7 — the resident service under sustained load.  An in-process
   server (worker domains behind the admission queue, process-lifetime
   warm caches) answers the paper corpus as a request stream: every
   ordered refinement pair over examples/specs/paper.oun, shipped as
   filesystem-free spec_text submissions.  The closed-loop load
   generator sweeps the client count at repeat ratio 0.5 — half the
   stream resubmits uniformly random earlier queries, which is exactly
   the traffic the warm caches exist for.  The baseline row answers
   the same stream cold: one fresh session (empty verdict cache, no
   contexts) per query, serially — the cost a per-invocation CLI
   pays for every question.  Rows report p50 and p90 only: a row has at
   most 112 samples, so a p99 would rest on a single one. *)
let p7 () =
  let spec_file =
    List.find_opt Sys.file_exists
      [
        Filename.concat (Filename.concat "examples" "specs") "paper.oun";
        "../examples/specs/paper.oun";
        "../../examples/specs/paper.oun";
        "../../../examples/specs/paper.oun";
      ]
  in
  match spec_file with
  | None ->
      (* the corpus travels with the repo; still, never crash the whole
         harness over a relocated checkout *)
      Format.printf "  [P7 skipped: examples/specs/paper.oun not found]@.";
      [ [ key "pass" (S "skipped"); rate "qps" 0. ] ]
  | Some spec_file ->
      let spec_text = In_channel.with_open_bin spec_file In_channel.input_all in
      let specs =
        match Lang.specs_of_string spec_text with
        | Ok specs -> specs
        | Error e -> failwith (Format.asprintf "P7: %a" Lang.pp_error e)
      in
      let p7_depth = 4 in
      let pairs = ordered_pairs specs in
      let pool =
        List.map
          (fun (g', g) ->
            Wire.submission ~depth:p7_depth
              ~queries:
                [ { Wire.kind = "refine"; names = [ Spec.name g'; Spec.name g ] } ]
              (`Spec_text spec_text))
          pairs
      in
      (* Baseline: fresh engine per query, serial — the process-per-
         query cost (sans fork/exec and spec parsing, so a lower bound
         on what a cold CLI invocation pays). *)
      let u7 = Spec.adequate_universe ~extra_objects:2 specs in
      let lats =
        List.map
          (fun (g', g) ->
            let req =
              Engine.request ~depth:p7_depth ~universe:u7
                (Job.Refine { refined = g'; abstract = g })
            in
            snd (wall (fun () -> ignore (Engine.run_batch ~domains:1 [ req ]))))
          pairs
      in
      let sorted = Array.of_list lats in
      Array.sort compare sorted;
      let pct p =
        let n = Array.length sorted in
        if n = 0 then 0.
        else sorted.(min (n - 1) (int_of_float (p /. 100. *. float_of_int n)))
      in
      let cold_wall = List.fold_left ( +. ) 0. lats in
      let n_pairs = List.length pairs in
      let cold =
        [
          key "pass" (S "cold per-invocation");
          key "clients" (I 1);
          key "repeat" (F 0.);
          info "requests" (I n_pairs);
          timing "wall_ms" cold_wall;
          rate "qps"
            (float_of_int n_pairs /. Float.max 0.001 cold_wall *. 1000.);
          timing "p50_ms" (pct 50.);
          timing "p90_ms" (pct 90.);
          info "cached" (I 0);
          key "mode" (S "serial");
        ]
      in
      (* The server: in-process, unix socket in the temp dir, no signal
         handlers (it is our own process); span recording stays off, as
         for an untraced server (P6 owns span measurement). *)
      let sock =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "posl-bench-%d.sock" (Unix.getpid ()))
      in
      let cfg =
        Serve.config ~workers:2 ~max_queue:256 ~handle_signals:false
          (`Unix sock)
      in
      let ready_lock = Mutex.create () in
      let ready_cond = Condition.create () in
      let up = ref false in
      let server =
        Thread.create
          (fun () ->
            Serve.run
              ~on_ready:(fun _ ->
                Mutex.lock ready_lock;
                up := true;
                Condition.signal ready_cond;
                Mutex.unlock ready_lock)
              cfg)
          ()
      in
      Mutex.lock ready_lock;
      while not !up do
        Condition.wait ready_cond ready_lock
      done;
      Mutex.unlock ready_lock;
      let addr : Wire.addr = `Unix sock in
      (* The loadgen seeds each client from (seed, client index), so
         recording the seed makes every campaign row replayable with
         posl-check loadgen --seed. *)
      let p7_seed = 0x9e51 in
      (* A pass's row with its wall time, the key [best_of] ranks by. *)
      let loadgen ~pass ~clients ~repeat ~requests =
        match
          Loadgen.run addr ~pool
            { Loadgen.requests; clients; repeat; mode = Loadgen.Closed;
              seed = p7_seed }
        with
        | Error msg -> failwith ("P7 loadgen: " ^ msg)
        | Ok (r : Loadgen.report) ->
            if r.errors > 0 then
              Format.printf "  [P7 %s: %d transport errors]@." pass r.errors;
            ( [
                key "pass" (S pass);
                key "clients" (I r.clients);
                key "repeat" (F r.repeat);
                info "requests" (I r.requests);
                timing "wall_ms" r.wall_ms;
                rate "qps" r.qps;
                timing "p50_ms" r.p50_ms;
                timing "p90_ms" r.p90_ms;
                info "cached" (I r.cached);
                key "mode" (S r.mode);
                info "seed" (I p7_seed);
                info "answered" (I r.answered);
                work "rejected" r.rejected;
                work "expired" r.expired;
                (* failing verdicts among the answers: with several
                   clients, which pool entries are drawn fresh depends on
                   scheduling *)
                info "failed" (I r.failed);
                work "errors" r.errors;
              ],
              r.wall_ms )
      in
      (* First contact fills the caches (fresh pool order, no repeats);
         the warm-server sweep then measures the resident steady state
         the service exists to provide.  Each warm pass is the best of 3
         on the already-warm server: every repetition replays the same
         seeded stream against the same filled caches. *)
      let n_pool = List.length pool in
      let first, _ =
        loadgen ~pass:"server first-contact" ~clients:2 ~repeat:0.
          ~requests:n_pool
      in
      let warm =
        List.map
          (fun clients ->
            fst
              (best_of ~reps:3 (fun () ->
                   loadgen ~pass:"warm server" ~clients ~repeat:0.5
                     ~requests:(2 * n_pool))))
          [ 1; 2; 4 ]
      in
      (* graceful drain via the protocol, then join the server thread *)
      let c = Client.connect addr in
      (match Client.call c (Wire.request_json Wire.Shutdown) with
      | Ok _ | Error _ -> ());
      Client.close c;
      Thread.join server;
      cold :: first :: warm

(* P8 — the on-the-fly antichain inclusion route (Def. 2 clause 3) on
   the cold 56-pair corpus: the new Auto route (antichain with interned
   states and memoized successor rows) against the pre-antichain Auto
   (compile both monitors to DFAs, decide inclusion, fall back to
   depth-cut exploration when compilation fails) and against the plain
   bounded route.  Each route starts from a fresh context — cold
   interning tables, cold DFA cache — which is the cost one CLI
   invocation pays.  Verdicts are required to agree bit-for-bit
   (Verdict.equal, witnesses included); the differential suite
   enforces the same corpus-wide. *)
let p8 () =
  let pairs = ordered_pairs Ex.all_specs in
  let reps = 5 in
  let run_route f =
    best_of ~reps (fun () ->
        let cctx = Tset.ctx universe in
        let vs, ms =
          wall (fun () -> List.map (fun (g', g) -> f cctx g' g) pairs)
        in
        ((vs, cctx), ms))
  in
  let auto cctx g' g = Refine.verdict ~depth cctx g' g in
  (* The legacy rows measure the pre-walk decision procedures, kept as
     the test suite's differential oracle. *)
  let legacy cctx g' g = Oracle.refine Oracle.Legacy_auto ~depth cctx g' g in
  let bounded cctx g' g = Oracle.refine Oracle.Bounded ~depth cctx g' g in
  let counted = Counters.create () in
  let (auto_vs, auto_ctx), auto_ms = run_route auto in
  (* Every rep redoes the same cold work on a fresh context, so the
     work counts divide evenly back to one pass (its timings are not
     read). *)
  let work_done = Engine.stats_of counted ~wall_ms:auto_ms ~domains:1 in
  let admitted = work_done.antichain_pairs / reps
  and pruned = work_done.antichain_prunes / reps
  and interned = work_done.interned_states / reps in
  (* A warm repeat on the same context: memo rows and interning tables
     already populated — the steady-state cost a resident service
     pays. *)
  let _, warm_ms =
    best_of ~reps:3 (fun () ->
        wall (fun () -> List.map (fun (g', g) -> auto auto_ctx g' g) pairs))
  in
  let (legacy_vs, _), legacy_ms = run_route legacy in
  let _, bounded_ms = run_route bounded in
  let agree = List.for_all2 Verdict.equal auto_vs legacy_vs in
  (* Span decomposition of one cold antichain pass, for EXPERIMENTS
     (a single pass, not [run_route]'s best-of-[reps]: span totals
     must add up to one cold corpus). *)
  let spans =
    span_totals (fun () ->
        let span_ctx = Tset.ctx universe in
        List.map (fun (g', g) -> auto span_ctx g' g) pairs)
  in
  [
    [
      key "route" (S "antichain_auto_cold");
      timing "total_ms" auto_ms;
      work "pairs_admitted" admitted;
      (* a pruned pair is work saved, so more is better *)
      info "pairs_pruned" (I pruned);
      work "states_interned" interned;
    ];
    [ key "route" (S "antichain_auto_warm"); timing "total_ms" warm_ms ];
    [
      key "route" (S "legacy_auto_cold");
      timing "total_ms" legacy_ms;
      claim "verdicts_agree" agree;
    ];
    [ key "route" (S "bounded_only_cold"); timing "total_ms" bounded_ms ];
    (* both sides of the ratio are gated as timings; the claim holds
       the floor the antichain route was built to clear *)
    [
      key "route" (S "speedup");
      info "legacy_over_antichain" (F (legacy_ms /. auto_ms));
      claim "ge5x" (legacy_ms /. auto_ms >= 5.);
    ];
    [
      key "route" (S "spans");
      info "rows"
        (Rows
           (List.map
              (fun (name, c, tot) ->
                [
                  key "span" (S name);
                  info "count" (I c);
                  info "total_ms" (F (float_of_int tot /. 1e6));
                ])
              spans));
    ];
  ]

(* P9 — the compositional planner: composite refine/equal queries over
   a multi-component corpus, answered by direct product checking
   ([--plan off]) vs theorem-plan decomposition ([--plan auto],
   Theorems 7 & 16).  The corpus is the fleet manifest (three systems
   sharing upgraded components, including a nested three-part system)
   plus composite queries over the paper's own cast.  The campaign
   records the planner's two contracts: [derived_agree] — every
   planner verdict equals the direct one modulo provenance (CI gates
   on this) — and strictly fewer product explorations (antichain pairs
   admitted, DFAs compiled) when the planner is on. *)
let p9 () =
  let manifest =
    Filename.concat (Filename.concat "examples" "specs") "fleet.manifest"
  in
  let fleet =
    if Sys.file_exists manifest then
      match
        Manifest.requests_of_file_typed ~default_depth:depth ~extra_objects:2
          manifest
      with
      | Ok rs -> rs
      | Error e ->
          Format.printf "  (fleet manifest skipped: %s)@."
            (Manifest.input_error_message e);
          []
    else begin
      Format.printf
        "  (fleet manifest not found — paper composites only)@.";
      []
    end
  in
  let pair = Compose.compose_exn in
  let preq label q = Engine.request ~label ~depth ~universe q in
  (* Composite queries over the paper's cast: three Theorem-7
     decompositions sharing one premise (RW2 ⊑ RW, proved once and
     served from the verdict cache thereafter), a commutativity
     instance (zero premises), and one refuted-premise query the
     planner must decline and answer directly. *)
  let paper =
    [
      preq "paper: refine RW2||Client RW||Client"
        (Job.refine ~refined:(pair Ex.rw2 Ex.client)
           ~abstract:(pair Ex.rw Ex.client));
      preq "paper: refine RW2||Client2 RW||Client2"
        (Job.refine ~refined:(pair Ex.rw2 Ex.client2)
           ~abstract:(pair Ex.rw Ex.client2));
      preq "paper: refine Read2||Client Read||Client"
        (Job.refine ~refined:(pair Ex.read2 Ex.client)
           ~abstract:(pair Ex.read Ex.client));
      preq "paper: refine RW||Client Write||Client"
        (Job.refine ~refined:(pair Ex.rw Ex.client)
           ~abstract:(pair Ex.write Ex.client));
      preq "paper: equal Client||WriteAcc WriteAcc||Client"
        (Job.equal ~left:(pair Ex.client Ex.write_acc)
           ~right:(pair Ex.write_acc Ex.client));
      preq "paper: refine RW||Client Read2||Client (fallback)"
        (Job.refine ~refined:(pair Ex.rw Ex.client)
           ~abstract:(pair Ex.read2 Ex.client));
    ]
  in
  let requests = fleet @ paper in
  (* The two cold routes take turns for 5 rounds, each keeping its
     best: the VM's speed drifts within a campaign, and timing one
     route's 5 runs after the other's let that drift move their ratio
     1.8x between bench runs. *)
  let run plan = wall (fun () -> Engine.run_batch ~domains:1 ~plan requests) in
  let better best r = if snd r < snd best then r else best in
  let rec rounds k (off, auto) =
    if k = 0 then (off, auto)
    else
      let off = better off (run Plan.Off) in
      let auto = better auto (run Plan.Auto) in
      rounds (k - 1) (off, auto)
  in
  let first_off = run Plan.Off in
  let first_auto = run Plan.Auto in
  let ( ((off_vs, (off_stats : Engine.stats)), off_ms),
        ((auto_vs, (auto_stats : Engine.stats)), auto_ms) ) =
    rounds 4 (first_off, first_auto)
  in
  (* Warm pass: same batch on a session one planner pass filled —
     every composite (and every premise) is a hit. *)
  let session = Engine.session () in
  let warm () =
    wall (fun () ->
        snd (Engine.run_jobs ~domains:1 ~plan:Plan.Auto session requests))
  in
  ignore (warm ());
  let warm_stats, warm_ms = best_of ~reps:3 warm in
  (* The soundness gate, measured: planner and direct verdicts agree on
     status, confidence and evidence for every query — only provenance
     (which rule fired vs which procedure ran) differs. *)
  let agree =
    List.for_all2
      (fun (a : Engine.result) (d : Engine.result) ->
        Verdict.equal_modulo_provenance a.Engine.verdict d.Engine.verdict)
      auto_vs off_vs
  in
  let stats_row route ms (s : Engine.stats) =
    [
      key "route" (S route);
      timing "total_ms" ms;
      work "jobs" s.jobs;
      info "cache_hits" (I s.cache_hits);
      info "derived_hits" (I s.derived_hits);
      work "plan_fallbacks" s.plan_fallbacks;
      work "antichain_pairs" s.antichain_pairs;
      work "dfa_compiles" s.dfa_compiles;
    ]
  in
  [
    stats_row "plan_off_cold" off_ms off_stats;
    stats_row "plan_auto_cold" auto_ms auto_stats;
    stats_row "plan_auto_warm" warm_ms warm_stats;
    [
      key "route" (S "agreement");
      claim "derived_agree" agree;
      claim "fewer_product_explorations"
        (auto_stats.antichain_pairs < off_stats.antichain_pairs);
      info "product_pairs_saved"
        (I (off_stats.antichain_pairs - auto_stats.antichain_pairs));
      info "speedup_off_over_auto" (F (off_ms /. auto_ms));
      claim "ge2x" (off_ms /. auto_ms >= 2.);
    ];
  ]

(* P10: one edit in the ten-query fleet — an incremental watch round
   against a cold batch over the whole manifest.  The edit doubles
   GaugeR's sample step, a trace-set-only change (the universe is
   untouched), so exactly one query's dependency token moves
   (`equal GaugeR||Log Gauge||Log`); the others are answered by
   their standing verdicts without touching the engine.  The
   acceptance bar is a >=10x wall-clock win for the incremental
   round. *)
let p10 () =
  let src_dir = Filename.concat "examples" "specs" in
  let src_manifest = Filename.concat src_dir "fleet.manifest" in
  let src_spec = Filename.concat src_dir "fleet.oun" in
  if not (Sys.file_exists src_manifest && Sys.file_exists src_spec) then begin
    Format.printf "  (fleet corpus not found — campaign skipped)@.";
    []
  end
  else begin
    (* Scratch copy: the campaign edits the spec file in place.  [use]
       targets resolve relative to the manifest, so the copy is
       self-contained wherever the bench runs from. *)
    let dir = Filename.temp_file "posl-p10" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let read f = In_channel.with_open_bin f In_channel.input_all in
    let write f s =
      Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)
    in
    let manifest = Filename.concat dir "fleet.manifest" in
    let spec = Filename.concat dir "fleet.oun" in
    let cleanup () =
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ manifest; spec ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    (* Scale-out: the watcher's incremental round is O(edit), not
       O(corpus), so its pay-off is proportional to corpus size — the
       campaign measures the fleet at scale.  The scratch manifest is
       the ten stock queries plus every cross-family compose/deadlock
       combination (families {Gauge,Gauge2}/g, {Log,Log2}/l, {Clock}/k
       keep object sets disjoint, so every combination elaborates);
       GaugeR stays in exactly one query, so the single-edit blast
       radius is still one. *)
    let scale_out =
      let g = [ "Gauge"; "Gauge2" ]
      and l = [ "Log"; "Log2" ]
      and k = [ "Clock" ] in
      let perms =
        [
          [ g; l; k ]; [ g; k; l ]; [ l; g; k ];
          [ l; k; g ]; [ k; g; l ]; [ k; l; g ];
        ]
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        "\n# P10 scale-out: cross-family composition queries.\n";
      List.iter
        (function
          | [ f1; f2; f3 ] ->
              List.iter
                (fun x ->
                  List.iter
                    (fun y ->
                      List.iter
                        (fun z ->
                          Buffer.add_string buf
                            (Printf.sprintf "compose %s||%s %s\n" x y z);
                          Buffer.add_string buf
                            (Printf.sprintf "deadlock %s||%s %s\n" x y z))
                        f3)
                    f2)
                f1
          | _ -> assert false)
        perms;
      Buffer.contents buf
    in
    write manifest (read src_manifest ^ scale_out);
    let original = read src_spec in
    write spec original;
    let needle = "traces prs (bind x in Env . (<x,g,SAMPLE(_)>))*;" in
    let doubled =
      "traces prs (bind x in Env . (<x,g,SAMPLE(_)> <x,g,SAMPLE(_)>))*;"
    in
    let replace ~needle ~by s =
      let nl = String.length needle and sl = String.length s in
      let rec find i =
        if i + nl > sl then None
        else if String.sub s i nl = needle then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> s
      | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + nl) (sl - i - nl)
    in
    let edited = replace ~needle ~by:doubled original in
    let requests () =
      Manifest.requests_of_file_typed ~default_depth:depth ~extra_objects:2
        manifest
    in
    if edited = original then begin
      Format.printf "  (GaugeR traces line not found — campaign skipped)@.";
      []
    end
    else
      match requests () with
      | Error e ->
          Format.printf "  (fleet manifest skipped: %s)@."
            (Manifest.input_error_message e);
          []
      | Ok rs ->
          let reps = 5 in
          (* Cold baseline: the full cold [batch] pipeline — manifest
             parse, spec elaboration, verification — on fresh caches
             every repetition, best-of.  That is what a plain
             [posl-check batch] pays on every invocation and what the
             watcher's incremental round is up against. *)
          let cold_stats, cold_ms =
            best_of ~reps (fun () ->
                wall (fun () ->
                    match requests () with
                    | Ok rs ->
                        snd (Engine.run_batch ~domains:1 ~plan:Plan.Auto rs)
                    | Error e ->
                        failwith
                          ("P10 cold batch: " ^ Manifest.input_error_message e)))
          in
          (* The cold round is the best of [reps] fresh watchers'
             first polls; the incremental rounds run on that watcher. *)
          let (w, cold_round), _ =
            best_of ~reps (fun () ->
                let w =
                  Watch.create ~default_depth:depth ~extra_objects:2 manifest
                in
                match Watch.poll w with
                | Some r -> ((w, r), r.Watch.elapsed_ms)
                | None -> failwith "P10: first poll ran no round")
          in
          (* Incremental rounds: alternate the edit in and out so every
             poll sees one moved spec; best-of over the edited and
             reverted rounds alike (each is 1 invalidated / 9 reused). *)
          let rounds = ref [] in
          for k = 1 to 2 * reps do
            write spec (if k mod 2 = 1 then edited else original);
            match Watch.poll w with
            | Some r -> rounds := r :: !rounds
            | None -> ()
          done;
          let incs = List.rev !rounds in
          let first =
            match incs with
            | r :: _ -> r
            | [] -> failwith "P10: edit produced no watch round"
          in
          let best_ms =
            List.fold_left
              (fun acc (r : Watch.report) -> Float.min acc r.Watch.elapsed_ms)
              Float.infinity incs
          in
          let speedup = cold_ms /. best_ms in
          [
            [
              key "route" (S "cold_batch");
              timing "total_ms" cold_ms;
              info "queries" (I (List.length rs));
              work "jobs" cold_stats.jobs;
            ];
            [
              key "route" (S "watch_cold_round");
              timing "total_ms" cold_round.Watch.elapsed_ms;
              work "queries_invalidated" cold_round.Watch.invalidated;
              info "queries_reused" (I cold_round.Watch.reused);
            ];
            [
              key "route" (S "watch_incremental");
              timing "total_ms" best_ms;
              work "queries_invalidated" first.Watch.invalidated;
              info "queries_reused" (I first.Watch.reused);
              info "flips" (I (List.length first.Watch.flips));
              info "rounds_measured" (I (List.length incs));
            ];
            [
              key "route" (S "summary");
              info "speedup_cold_over_incremental" (F speedup);
              claim "ge10x" (speedup >= 10.);
            ];
          ]
  end

(* P11: observability overhead.  The same refinement batch with span
   recording off vs on (ring writes + per-job GC attrs + the runtime
   sampler's pause heartbeat), plus the marginal cost of a structured
   log event and the GC observations the sampler collected.
   The paper makes no claim here; the gated claim is the engineering
   one — full tracing stays within 2x of the untraced run (in practice
   it is percent-level).  [pause_p99] is the heartbeat-oversleep proxy
   in milliseconds, reported but not gated (it measures the OS
   scheduler as much as the GC). *)
let p11 () =
  let batch = engine_batch ~depth:4 in
  let run_once () = wall (fun () -> ignore (Engine.run_batch ~domains:1 batch)) in
  Telemetry.set_enabled false;
  let _, off_ms = best_of run_once in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Runtime.start ();
  let stat0 = Gc.quick_stat () in
  let _, on_ms = best_of run_once in
  let stat1 = Gc.quick_stat () in
  Runtime.stop ();
  Telemetry.set_enabled false;
  let spans = List.length (Telemetry.spans ()) in
  let dropped = Telemetry.dropped () in
  Telemetry.reset ();
  (* marginal cost of one structured log event: rendered and handed
     to a sink that discards it, so the row times what [--log FILE]
     costs short of the file write *)
  let log_events = 10_000 in
  let log_ns =
    Tlog.set_sink (Some ignore);
    let t0 = Telemetry.now_ns () in
    for i = 1 to log_events do
      Tlog.event
        ~fields:[ ("i", Tlog.I i); ("ms", Tlog.F 0.5) ]
        "bench.p11"
    done;
    let ns = float_of_int (Telemetry.now_ns () - t0) in
    Tlog.set_sink None;
    ns /. float_of_int log_events
  in
  let pause = Pmetrics.histogram "posl_gc_pause_ms" in
  [
    [
      key "route" (S "spans_off");
      timing "total_ms" off_ms;
      work "jobs" (List.length batch);
    ];
    [
      key "route" (S "spans_on");
      timing "total_ms" on_ms;
      work "spans_recorded" spans;
      work "spans_dropped" dropped;
      info "gc_minor_collections"
        (I (stat1.Gc.minor_collections - stat0.Gc.minor_collections));
      info "gc_major_collections"
        (I (stat1.Gc.major_collections - stat0.Gc.major_collections));
    ];
    [
      key "route" (S "log");
      info "events" (I log_events);
      info "ns_per_event" (F log_ns);
    ];
    [
      key "route" (S "gc");
      info "pause_samples" (I (Pmetrics.count pause));
      info "pause_p99" (F (Pmetrics.percentile pause 99.));
    ];
    [
      key "route" (S "summary");
      info "overhead_on_over_off" (F (on_ms /. off_ms));
      claim "tracing_le_2x" (on_ms <= 2. *. off_ms);
    ];
  ]

let campaigns =
  let c ?(snapshot = true) name title run = { name; title; snapshot; run } in
  [
    c ~snapshot:false "P1"
      "state-space exploration scaling (RW <= Write, bounded)" p1;
    c ~snapshot:false "P2"
      "automata pipeline scaling (Write spec, growing universe)" p2;
    c ~snapshot:false "P3" "symbolic event-set algebra scaling" p3;
    c "P4"
      "engine batch throughput (best of 5, cold vs warm, domains 1-2)"
      p4;
    c "P5"
      "persistent verdict store (best of 5, cold vs warm-in-process vs \
       warm-across-process)"
      p5;
    c "P6"
      "span-level time decomposition (best of 5 cold batches, 1 domain)" p6;
    c "P7"
      "sustained service throughput (warm server vs cold per-invocation)" p7;
    c "P8" "antichain inclusion vs legacy routes (cold 56-pair corpus)" p8;
    c "P9" "compositional planner vs direct checking (composite corpus)" p9;
    c "P10" "incremental watch round vs cold batch (single fleet edit)" p10;
    c "P11" "observability overhead (tracing, structured log, gc sampler)" p11;
  ]

(* Committed bench snapshots: with [--commit-snapshot], after all
   campaigns have landed under [out_dir], copy the snapshot campaigns'
   trajectories next to the sources so the repository records the
   numbers each change shipped with (CI uploads the same files as
   artifacts).  Off by default: a plain [dune exec bench/main.exe]
   writes only under [_build/bench] and leaves the committed baselines
   — the reference the [report] gate compares against — untouched. *)
let commit_snapshot =
  Array.exists (fun a -> a = "--commit-snapshot") Sys.argv

let snapshot_reports_to_root () =
  if commit_snapshot && Sys.file_exists "dune-project" then
    List.iter
      (fun c ->
        let file = Printf.sprintf "BENCH_%s.json" c.name in
        let src = Filename.concat out_dir file in
        if c.snapshot && Sys.file_exists src then begin
          let contents =
            In_channel.with_open_bin src In_channel.input_all
          in
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc contents);
          Format.printf "  [snapshot -> %s]@." file
        end)
      campaigns

(* ------------------------------------------------------------------ *)
(* Section 3: Bechamel micro-benchmarks                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let stage = Staged.stage in
  let refine_test name g' g =
    Test.make ~name (stage (fun () -> Refine.verdict ~depth ctx g' g))
  in
  let comp = Compose.interface Ex.client Ex.write_acc in
  let comp_alphabet = Spec.concrete_alphabet universe comp in
  let comp2 = Compose.interface Ex.client2 Ex.write_acc in
  let comp2_alphabet = Spec.concrete_alphabet universe comp2 in
  let rw_alphabet = Spec.concrete_alphabet universe Ex.rw in
  [
    (* E2/E3: refinement checks *)
    refine_test "E2/refine/read2-read" Ex.read2 Ex.read;
    refine_test "E3/refine/rw-write" Ex.rw Ex.write;
    refine_test "E3/refine/rw-read2(neg)" Ex.rw Ex.read2;
    refine_test "E6/refine/rw2-writeacc" Ex.rw2 Ex.write_acc;
    (* E4: observable behaviour of a composition *)
    Test.make ~name:"E4/compose/client-writeacc"
      (stage (fun () ->
           Bmc.count_traces ctx ~alphabet:comp_alphabet ~depth:4
             (Spec.tset comp)));
    (* E5: deadlock detection *)
    Test.make ~name:"E5/deadlock/client2"
      (stage (fun () ->
           Bmc.find_deadlock ctx ~alphabet:comp2_alphabet ~depth:4
             (Spec.tset comp2)));
    (* E7: Property 5 *)
    Test.make ~name:"E7/theory/prop5-rw"
      (stage (fun () -> Theory.property5 ctx ~depth:4 Ex.rw));
    (* E11: Theorem 16 static side conditions (symbolic only), four
       passes over the 56 ordered paper pairs per run: one pair's checks
       last under a microsecond, too short a run for the fit to find a
       slope, and one pass still fit below r² 0.85 in 4 of 13 runs *)
    Test.make ~name:"E11/static/composability+properness (224 pairs)"
      (stage
         (let pairs = ordered_pairs Ex.all_specs in
          fun () ->
            for _ = 1 to 4 do
              List.iter
                (fun (g', g) ->
                  ignore
                    (Sys.opaque_identity
                       ( Compose.composable g' g,
                         Compose.proper ~refined:g' ~abstract:g
                           ~context:Ex.client )))
                pairs
            done));
    (* E13: filter law evaluation *)
    Test.make ~name:"E13/laws/filter"
      (stage
         (let h =
            Trace.of_list
              (Array.to_list rw_alphabet |> List.filteri (fun i _ -> i < 8))
          in
          fun () ->
            Theory.filter_law (Spec.alpha Ex.write) (Spec.alpha Ex.read2) h));
    (* P1: one exploration step cost *)
    Test.make ~name:"P1/bmc/rw-write-depth4"
      (stage (fun () ->
           Bmc.check_inclusion_antichain ~complete:false ctx
             ~alphabet:rw_alphabet ~depth:4 ~lhs:(Spec.tset Ex.rw)
             ~proj:(Spec.alpha Ex.write) ~rhs:(Spec.tset Ex.write)));
    (* P2: automata pipeline *)
    Test.make ~name:"P2/automata/write-pipeline"
      (stage
         (let ground = Regex.expand universe Ex.write_regex in
          let events =
            Array.of_list (Eventset.sample universe (Regex.atom_union ground))
          in
          fun () -> Regex.prs_dfa ~events ground));
    (* P3: symbolic algebra *)
    Test.make ~name:"P3/sets/subset"
      (stage (fun () -> Eventset.subset (Spec.alpha Ex.write) (Spec.alpha Ex.rw)));
    Test.make ~name:"P3/sets/compose-alpha"
      (stage (fun () ->
           Eventset.diff
             (Eventset.union (Spec.alpha Ex.client) (Spec.alpha Ex.write_acc))
             (Internal.pair (Oid.v "c") (Oid.v "o"))));
    (* P4: verdict-cache machinery — content digest of a query (computed
       afresh), a repeat of that query on a session that has answered
       it (key from the session's memoised pieces, then a cache hit),
       and a warm batch answered entirely from the cache *)
    Test.make ~name:"P4/engine/digest"
      (stage (fun () ->
           Edigest.query ~universe ~depth:4
             (Job.Refine { refined = Ex.rw2; abstract = Ex.write_acc })));
    Test.make ~name:"P4/engine/warm-hit"
      (stage
         (let session = Engine.session () and counters = Counters.create () in
          let request =
            Engine.request ~depth:4 ~universe
              (Job.Refine { refined = Ex.rw2; abstract = Ex.write_acc })
          in
          ignore (Engine.answer session counters request);
          fun () -> Engine.answer session counters request));
    Test.make ~name:"P4/engine/warm-batch"
      (stage
         (let batch = engine_batch ~depth:3 in
          let session = Engine.session () in
          let _ = Engine.run_jobs ~domains:1 session batch in
          fun () -> Engine.run_jobs ~domains:1 session batch));
  ]

let run_bechamel () =
  Report.section "Bechamel micro-benchmarks (one per experiment)";
  let tests = bechamel_tests () in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let table = Report.create [ "benchmark"; "ns/op"; "r²" ] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"" [ test ]) in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Printf.sprintf "%.0f" e
            | Some [] | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%.4f" r
            | None -> "n/a"
          in
          Report.add_row table [ name; ns; r2 ])
        results)
    tests;
  Report.print table

let () =
  Format.printf
    "posl experiment harness — Johnsen & Owe, Composition and Refinement for@.\
     Partial Object Specifications (2002).  Paper claims vs measured verdicts.@.";
  e1 ();
  e2_e3 ();
  e4_e5_e6 ();
  theorem_campaigns ();
  e14 ();
  e15 ();
  ablations ();
  List.iter run_campaign campaigns;
  snapshot_reports_to_root ();
  run_bechamel ();
  Format.printf "@.done.@."
