(* The experiment harness: regenerates every checkable artefact of the
   paper (its figure, its examples, its lemmas and theorems — the paper
   has no measurement tables, see EXPERIMENTS.md) and measures the cost
   of the library's decision procedures.

   Output, in order:
     1. reproduction verdicts, one table per experiment family
        (E1..E13 of DESIGN.md): paper claim vs measured verdict;
     2. performance sweeps P1..P3 (scaling series, printed as tables);
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
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Plan = Posl_engine.Plan
module Manifest = Posl_engine.Manifest
module Vcache = Posl_engine.Cache
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

let write_campaign ~name ~title rows =
  mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" name) in
  let doc =
    Json.Obj
      [
        ("campaign", Json.Str name);
        ("title", Json.Str title);
        ("rows", Json.List rows);
      ]
  in
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
(* Section 2: performance sweeps                                        *)
(* ------------------------------------------------------------------ *)

(* P1 — bounded-exploration scaling: reachable states and wall time per
   depth of the product walk cut at that depth. *)
let p1 () =
  Report.section "P1: state-space exploration scaling (RW ⊑ Write, bounded)";
  let alphabet = Spec.concrete_alphabet universe Ex.rw in
  let t =
    Report.create [ "depth"; "reachable states"; "serial ms"; "verdict" ]
  in
  let jrows = ref [] in
  List.iter
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
      let verdict = pp_str (Bmc.pp_verdict Trace.pp) v in
      Report.add_row t
        [
          string_of_int d;
          string_of_int states;
          Printf.sprintf "%.1f" ms;
          verdict;
        ];
      jrows :=
        Json.Obj
          [
            ("depth", Json.Int d);
            ("reachable_states", Json.Int states);
            ("serial_ms", Json.Float ms);
            (* not "verdict": that key is reserved for verdict objects,
               which `posl-check json` round-trips *)
            ("outcome", Json.Str verdict);
          ]
        :: !jrows)
    [ 2; 3; 4; 5; 6 ];
  Report.print t;
  write_campaign ~name:"P1"
    ~title:"state-space exploration scaling (RW <= Write, bounded)"
    (List.rev !jrows)

(* P2 — automata pipeline scaling: regex → NFA → DFA → minimise, with
   growing environment (alphabet) size. *)
let p2 () =
  Report.section "P2: automata pipeline scaling (Write spec, growing universe)";
  let t =
    Report.create
      [ "env objects"; "alphabet"; "nfa states"; "dfa states"; "min states"; "ms" ]
  in
  let jrows = ref [] in
  List.iter
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
      Report.add_row t
        [
          string_of_int n_env;
          string_of_int (Array.length events);
          string_of_int (Posl_automata.Nfa.n_states nfa);
          string_of_int (Posl_automata.Dfa.n_states dfa);
          string_of_int (Posl_automata.Dfa.n_states mini);
          Printf.sprintf "%.2f" ms;
        ];
      jrows :=
        Json.Obj
          [
            ("env_objects", Json.Int n_env);
            ("alphabet", Json.Int (Array.length events));
            ("nfa_states", Json.Int (Posl_automata.Nfa.n_states nfa));
            ("dfa_states", Json.Int (Posl_automata.Dfa.n_states dfa));
            ("min_states", Json.Int (Posl_automata.Dfa.n_states mini));
            ("ms", Json.Float ms);
          ]
        :: !jrows)
    [ 1; 2; 3; 4; 6; 8 ];
  Report.print t;
  write_campaign ~name:"P2"
    ~title:"automata pipeline scaling (Write spec, growing universe)"
    (List.rev !jrows)

(* P3 — symbolic set algebra scaling: decision procedures on rectangle
   unions of growing width. *)
let p3 () =
  Report.section "P3: symbolic event-set algebra scaling";
  let sc = Gen.default_scenario in
  let t =
    Report.create [ "width"; "union ms"; "inter ms"; "diff ms"; "subset ms" ]
  in
  let jrows = ref [] in
  List.iter
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
      Report.add_row t
        [
          string_of_int w;
          Printf.sprintf "%.3f" union_ms;
          Printf.sprintf "%.3f" inter_ms;
          Printf.sprintf "%.3f" diff_ms;
          Printf.sprintf "%.3f" subset_ms;
        ];
      jrows :=
        Json.Obj
          [
            ("width", Json.Int w);
            ("union_ms", Json.Float union_ms);
            ("inter_ms", Json.Float inter_ms);
            ("diff_ms", Json.Float diff_ms);
            ("subset_ms", Json.Float subset_ms);
          ]
        :: !jrows)
    [ 2; 4; 8; 16 ];
  Report.print t;
  write_campaign ~name:"P3" ~title:"symbolic event-set algebra scaling"
    (List.rev !jrows)

(* P4 — engine batch throughput: every ordered refinement pair over the
   paper cast, scheduled across 1/2/4 domains, cold cache then warm
   cache (the warm pass answers everything from the verdict store). *)
let engine_batch ~depth =
  List.concat_map
    (fun g' ->
      List.filter_map
        (fun g ->
          if g' == g then None
          else
            Some
              (Engine.request ~depth ~universe
                 (Job.Refine { refined = g'; abstract = g })))
        Ex.all_specs)
    Ex.all_specs

let p4 () =
  Report.section
    "P4: engine batch throughput (shared DFA cache, cold vs warm, domains 1-8)";
  let batch = engine_batch ~depth:4 in
  let t =
    Report.create
      [
        "domains";
        "cache";
        "jobs";
        "wall ms";
        "hits";
        "dfa compiles";
        "dfa hits";
        "busy ms";
        "util %";
      ]
  in
  let jrows = ref [] in
  List.iter
    (fun domains ->
      (* fresh verdict cache AND fresh DFA registry per domain count:
         the cold row shows compiles staying at the distinct-regex
         count whatever the domain count (one striped cache shared by
         all workers), the warm row answers from the verdict store *)
      let cache = Vcache.create () in
      let dfa_cache = Engine.dfa_cache () in
      let pass label =
        let _, (stats : Engine.stats) =
          Engine.run_batch ~domains ~cache ~dfa_cache batch
        in
        Report.add_row t
          [
            string_of_int domains;
            label;
            string_of_int stats.Engine.jobs;
            Printf.sprintf "%.1f" stats.Engine.wall_ms;
            string_of_int stats.Engine.cache_hits;
            string_of_int stats.Engine.dfa_compiles;
            string_of_int stats.Engine.dfa_cache_hits;
            Printf.sprintf "%.1f" stats.Engine.busy_ms;
            Printf.sprintf "%.0f" (100. *. stats.Engine.utilization);
          ];
        jrows :=
          Json.Obj
            [
              ("domains", Json.Int domains);
              ("cache", Json.Str label);
              ("jobs", Json.Int stats.Engine.jobs);
              ("wall_ms", Json.Float stats.Engine.wall_ms);
              ("cache_hits", Json.Int stats.Engine.cache_hits);
              ("dfa_compiles", Json.Int stats.Engine.dfa_compiles);
              ("dfa_cache_hits", Json.Int stats.Engine.dfa_cache_hits);
              ("busy_ms", Json.Float stats.Engine.busy_ms);
              ("utilization", Json.Float stats.Engine.utilization);
            ]
          :: !jrows
      in
      pass "cold";
      pass "warm")
    [ 1; 2; 4; 8 ];
  Report.print t;
  write_campaign ~name:"P4"
    ~title:
      "engine batch throughput (shared DFA cache, cold vs warm, domains 1-8)"
    (List.rev !jrows)

(* P5 — the persistent verdict store across process lifetimes: the same
   paper-corpus batch cold (empty store, computes and write-behinds),
   warm in-process (the in-memory cache answers, the store is not even
   consulted), and warm across processes (fresh handle, cold in-memory
   cache — every distinct digest answered from disk).  The
   across-process pass is simulated by closing and reopening the store
   with a fresh in-memory cache, which is exactly what a new
   posl-check invocation does. *)
let p5 () =
  Report.section
    "P5: persistent verdict store (cold vs warm-in-process vs \
     warm-across-process)";
  let batch = engine_batch ~depth:4 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "posl-bench-store-%d" (Unix.getpid ()))
  in
  let t =
    Report.create
      [
        "pass";
        "jobs";
        "wall ms";
        "computed";
        "cache hits";
        "store hits";
        "store writes";
      ]
  in
  let jrows = ref [] in
  let pass label ~cache store =
    let _, (stats : Engine.stats) =
      Engine.run_batch ~domains:1 ~cache ~store batch
    in
    Report.add_row t
      [
        label;
        string_of_int stats.Engine.jobs;
        Printf.sprintf "%.1f" stats.Engine.wall_ms;
        string_of_int stats.Engine.cache_misses;
        string_of_int stats.Engine.cache_hits;
        string_of_int stats.Engine.store_hits;
        string_of_int stats.Engine.store_writes;
      ];
    jrows :=
      Json.Obj
        [
          ("pass", Json.Str label);
          ("jobs", Json.Int stats.Engine.jobs);
          ("wall_ms", Json.Float stats.Engine.wall_ms);
          ("computed", Json.Int stats.Engine.cache_misses);
          ("cache_hits", Json.Int stats.Engine.cache_hits);
          ("store_hits", Json.Int stats.Engine.store_hits);
          ("store_writes", Json.Int stats.Engine.store_writes);
        ]
      :: !jrows
  in
  let cache = Vcache.create () in
  let s = Store.open_ dir in
  pass "cold" ~cache s;
  pass "warm in-process" ~cache s;
  Store.close s;
  (* a new process: new store handle, cold in-memory verdict cache *)
  let s = Store.open_ dir in
  pass "warm across-process" ~cache:(Vcache.create ()) s;
  Store.close s;
  Report.print t;
  write_campaign ~name:"P5"
    ~title:
      "persistent verdict store (cold vs warm-in-process vs \
       warm-across-process)"
    (List.rev !jrows);
  (try
     Sys.remove (Store.log_path dir);
     Sys.remove (Filename.concat dir "lock");
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ())

(* P6 — where the time actually goes: the span-level decomposition of
   one cold engine batch.  Telemetry is switched on for the batch only;
   the table aggregates the resulting trace by span name.  This is the
   observability counterpart of P4's wall-clock row: the same run,
   broken down by subsystem instead of summed. *)
let p6 () =
  Report.section "P6: span-level time decomposition (cold batch, 1 domain)";
  let batch = engine_batch ~depth:4 in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let cache = Vcache.create () in
  let _ = Engine.run_batch ~domains:1 ~cache batch in
  Telemetry.set_enabled false;
  let spans = Telemetry.spans () in
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Telemetry.span) ->
      let c, tot =
        Option.value (Hashtbl.find_opt tbl s.Telemetry.name) ~default:(0, 0)
      in
      Hashtbl.replace tbl s.Telemetry.name (c + 1, tot + s.Telemetry.dur_ns))
    spans;
  let rows =
    Hashtbl.fold (fun name (c, tot) acc -> (name, c, tot) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let t = Report.create [ "span"; "count"; "total ms"; "mean ms" ] in
  let jrows =
    List.map
      (fun (name, c, tot) ->
        let total_ms = float_of_int tot /. 1e6 in
        let mean_ms = total_ms /. float_of_int (max 1 c) in
        Report.add_row t
          [
            name;
            string_of_int c;
            Printf.sprintf "%.1f" total_ms;
            Printf.sprintf "%.3f" mean_ms;
          ];
        Json.Obj
          [
            ("span", Json.Str name);
            ("count", Json.Int c);
            ("total_ms", Json.Float total_ms);
            ("mean_ms", Json.Float mean_ms);
          ])
      rows
  in
  Report.print t;
  Telemetry.reset ();
  write_campaign ~name:"P6"
    ~title:"span-level time decomposition (cold batch, 1 domain)" jrows

(* P7 — the resident service under sustained load.  An in-process
   server (worker domains behind the admission queue, process-lifetime
   warm caches) answers the paper corpus as a request stream: every
   ordered refinement pair over examples/specs/paper.oun, shipped as
   filesystem-free spec_text submissions.  The closed-loop load
   generator sweeps the client count at repeat ratio 0.5 — half the
   stream resubmits uniformly random earlier queries, which is exactly
   the traffic the warm caches exist for.  The baseline row answers
   the same stream cold: one fresh engine (empty verdict cache, empty
   DFA registry) per query, serially — the cost a per-invocation CLI
   pays for every question. *)
let p7 () =
  Report.section
    "P7: sustained service throughput (warm server vs cold per-invocation)";
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
      write_campaign ~name:"P7"
        ~title:"sustained service throughput (warm server vs cold)"
        [ Json.Obj [ ("pass", Json.Str "skipped"); ("qps", Json.Float 0.) ] ]
  | Some spec_file ->
      let spec_text =
        let ic = open_in_bin spec_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let specs =
        match Lang.specs_of_string spec_text with
        | Ok specs -> specs
        | Error e -> failwith (Format.asprintf "P7: %a" Lang.pp_error e)
      in
      let p7_depth = 4 in
      let pairs =
        List.concat_map
          (fun g' ->
            List.filter_map
              (fun g -> if g' == g then None else Some (g', g))
              specs)
          specs
      in
      let pool =
        List.map
          (fun (g', g) ->
            Wire.submission ~depth:p7_depth
              ~queries:
                [ { Wire.kind = "refine"; names = [ Spec.name g'; Spec.name g ] } ]
              (`Spec_text spec_text))
          pairs
      in
      let t =
        Report.create
          [
            "pass"; "clients"; "repeat"; "requests"; "wall ms"; "qps";
            "p50 ms"; "p90 ms"; "p99 ms"; "cached";
          ]
      in
      let jrows = ref [] in
      let add_row ~pass ~clients ~repeat ~requests ~wall_ms ~qps ~p50 ~p90
          ~p99 ~cached extra =
        Report.add_row t
          [
            pass;
            string_of_int clients;
            Printf.sprintf "%.2f" repeat;
            string_of_int requests;
            Printf.sprintf "%.1f" wall_ms;
            Printf.sprintf "%.1f" qps;
            Printf.sprintf "%.2f" p50;
            Printf.sprintf "%.2f" p90;
            Printf.sprintf "%.2f" p99;
            string_of_int cached;
          ];
        jrows :=
          Json.Obj
            ([
               ("pass", Json.Str pass);
               ("clients", Json.Int clients);
               ("repeat", Json.Float repeat);
               ("requests", Json.Int requests);
               ("wall_ms", Json.Float wall_ms);
               ("qps", Json.Float qps);
               ("p50_ms", Json.Float p50);
               ("p90_ms", Json.Float p90);
               ("p99_ms", Json.Float p99);
               ("cached", Json.Int cached);
             ]
            @ extra)
          :: !jrows
      in
      (* Baseline: fresh engine per query, serial — the process-per-
         query cost (sans fork/exec and spec parsing, so a lower bound
         on what a cold CLI invocation pays). *)
      let u7 = Spec.adequate_universe ~extra_objects:2 specs in
      let lats =
        List.map
          (fun (g', g) ->
            let cache = Vcache.create () in
            let dfa_cache = Engine.dfa_cache () in
            let req =
              Engine.request ~depth:p7_depth ~universe:u7
                (Job.Refine { refined = g'; abstract = g })
            in
            let _, ms =
              wall (fun () ->
                  ignore (Engine.run_batch ~domains:1 ~cache ~dfa_cache [ req ]))
            in
            ms)
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
      add_row ~pass:"cold per-invocation" ~clients:1 ~repeat:0.
        ~requests:(List.length pairs) ~wall_ms:cold_wall
        ~qps:(float_of_int (List.length pairs) /. Float.max 0.001 cold_wall *. 1000.)
        ~p50:(pct 50.) ~p90:(pct 90.) ~p99:(pct 99.) ~cached:0
        [ ("mode", Json.Str "serial") ];
      (* The server: in-process, unix socket in the temp dir, no signal
         handlers (it is our own process), telemetry spans off (P6 owns
         span measurement). *)
      let sock =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "posl-bench-%d.sock" (Unix.getpid ()))
      in
      let cfg =
        Serve.config ~workers:2 ~max_queue:256 ~spans:false
          ~handle_signals:false (`Unix sock)
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
      (* The loadgen now seeds each client from (seed, client index),
         so recording the seed makes every campaign row replayable with
         posl-check loadgen --seed. *)
      let p7_seed = 0x9e51 in
      let campaign ~pass ~clients ~repeat ~requests =
        match
          Loadgen.run addr ~pool
            { Loadgen.requests; clients; repeat; mode = Loadgen.Closed;
              seed = p7_seed }
        with
        | Error msg -> failwith ("P7 loadgen: " ^ msg)
        | Ok (r : Loadgen.report) ->
            add_row ~pass ~clients:r.Loadgen.clients ~repeat:r.Loadgen.repeat
              ~requests:r.Loadgen.requests ~wall_ms:r.Loadgen.wall_ms
              ~qps:r.Loadgen.qps ~p50:r.Loadgen.p50_ms ~p90:r.Loadgen.p90_ms
              ~p99:r.Loadgen.p99_ms ~cached:r.Loadgen.cached
              [
                ("mode", Json.Str r.Loadgen.mode);
                ("seed", Json.Int p7_seed);
                ("answered", Json.Int r.Loadgen.answered);
                ("rejected", Json.Int r.Loadgen.rejected);
                ("expired", Json.Int r.Loadgen.expired);
                ("failed", Json.Int r.Loadgen.failed);
                ("errors", Json.Int r.Loadgen.errors);
              ];
            if r.Loadgen.errors > 0 then
              Format.printf "  [P7 %s: %d transport errors]@." pass
                r.Loadgen.errors
      in
      (* First contact fills the caches (fresh pool order, no repeats);
         the warm-server sweep then measures the resident steady state
         the service exists to provide. *)
      let n_pool = List.length pool in
      campaign ~pass:"server first-contact" ~clients:2 ~repeat:0.
        ~requests:n_pool;
      List.iter
        (fun clients ->
          campaign ~pass:"warm server" ~clients ~repeat:0.5
            ~requests:(2 * n_pool))
        [ 1; 2; 4 ];
      (* graceful drain via the protocol, then join the server thread *)
      let c = Client.connect addr in
      (match Client.call c (Wire.request_json Wire.Shutdown) with
      | Ok _ | Error _ -> ());
      Client.close c;
      Thread.join server;
      Report.print t;
      write_campaign ~name:"P7"
        ~title:"sustained service throughput (warm server vs cold per-invocation)"
        (List.rev !jrows)

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
  Report.section
    "P8: antichain inclusion vs legacy routes (cold 56-pair corpus)";
  let module Metrics = Posl_telemetry.Metrics in
  let pairs =
    List.concat_map
      (fun g' ->
        List.filter_map
          (fun g -> if g' == g then None else Some (g', g))
          Ex.all_specs)
      Ex.all_specs
  in
  let n_pairs = List.length pairs in
  (* Cold totals at this scale are tens of milliseconds, where timer
     and allocator noise moves single runs by 2×; each route therefore
     reports its best of [reps] passes, each on a fresh context — the
     minimum-of-N estimator standard for cold-cost comparisons. *)
  let reps = 5 in
  let run_route f =
    let once () =
      let cctx = Tset.ctx universe in
      let t0 = Unix.gettimeofday () in
      let vs = List.map (fun (g', g) -> f cctx g' g) pairs in
      (vs, cctx, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let best = ref (once ()) in
    for _ = 2 to reps do
      let (_, _, ms) as r = once () in
      let _, _, best_ms = !best in
      if ms < best_ms then best := r
    done;
    !best
  in
  let auto cctx g' g = Refine.verdict ~depth cctx g' g in
  (* The legacy rows measure the pre-walk decision procedures, kept as
     the test suite's differential oracle. *)
  let legacy cctx g' g = Oracle.refine Oracle.Legacy_auto ~depth cctx g' g in
  let bounded cctx g' g = Oracle.refine Oracle.Bounded ~depth cctx g' g in
  let pairs_c =
    Metrics.counter ~help:"antichain pairs" "posl_bmc_antichain_pairs_total"
  in
  let prunes_c =
    Metrics.counter ~help:"antichain prunes" "posl_bmc_antichain_prunes_total"
  in
  let interned_c =
    Metrics.counter ~help:"interned states" "posl_tset_interned_states_total"
  in
  let ac0 = Metrics.value pairs_c
  and pr0 = Metrics.value prunes_c
  and in0 = Metrics.value interned_c in
  let auto_vs, auto_ctx, auto_ms = run_route auto in
  (* Every rep redoes the same cold work on a fresh context, so the
     counter deltas divide evenly back to one pass. *)
  let admitted = (Metrics.value pairs_c - ac0) / reps
  and pruned = (Metrics.value prunes_c - pr0) / reps
  and interned = (Metrics.value interned_c - in0) / reps in
  let states, composites, events = Tset.intern_counts auto_ctx in
  (* A warm repeat on the same context: memo rows and interning tables
     already populated — the steady-state cost a resident service
     pays. *)
  let warm_once () =
    let t0 = Unix.gettimeofday () in
    let _ = List.map (fun (g', g) -> auto auto_ctx g' g) pairs in
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  let warm_ms =
    List.fold_left min (warm_once ()) [ warm_once (); warm_once () ]
  in
  let legacy_vs, _, legacy_ms = run_route legacy in
  let _, _, bounded_ms = run_route bounded in
  let agree = List.for_all2 Verdict.equal auto_vs legacy_vs in
  let speedup = legacy_ms /. auto_ms in
  let t = Report.create [ "route"; "total ms"; "mean ms"; "notes" ] in
  let row name ms notes =
    Report.add_row t
      [
        name;
        Printf.sprintf "%.1f" ms;
        Printf.sprintf "%.3f" (ms /. float_of_int n_pairs);
        notes;
      ]
  in
  row "antichain (Auto, cold)" auto_ms
    (Printf.sprintf "%d pairs admitted, %d pruned, %d states interned"
       admitted pruned interned);
  row "antichain (Auto, warm)" warm_ms
    (Printf.sprintf "%d states / %d composites / %d events interned" states
       composites events);
  row "legacy auto (automata, cold)" legacy_ms
    (Printf.sprintf "verdicts agree bit-for-bit: %s"
       (if agree then "yes" else "NO"));
  row "bounded only (cold)" bounded_ms "depth-cut exploration";
  row "speedup (legacy/antichain)" speedup "target ≥5×";
  Report.print t;
  (* Span decomposition of one cold antichain pass, for EXPERIMENTS
     (a single pass, not [run_route]'s best-of-[reps]: span totals
     must add up to one cold corpus). *)
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let span_ctx = Tset.ctx universe in
  let _ = List.map (fun (g', g) -> auto span_ctx g' g) pairs in
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
  let span_rows =
    Hashtbl.fold (fun name (c, tot) acc -> (name, c, tot) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> List.map (fun (name, c, tot) ->
           Json.Obj
             [
               ("span", Json.Str name);
               ("count", Json.Int c);
               ("total_ms", Json.Float (float_of_int tot /. 1e6));
             ])
  in
  write_campaign ~name:"P8"
    ~title:"antichain inclusion vs legacy routes (cold 56-pair corpus)"
    [
      Json.Obj
        [
          ("route", Json.Str "antichain_auto_cold");
          ("total_ms", Json.Float auto_ms);
          ("pairs_admitted", Json.Int admitted);
          ("pairs_pruned", Json.Int pruned);
          ("states_interned", Json.Int interned);
        ];
      Json.Obj
        [
          ("route", Json.Str "antichain_auto_warm");
          ("total_ms", Json.Float warm_ms);
        ];
      Json.Obj
        [
          ("route", Json.Str "legacy_auto_cold");
          ("total_ms", Json.Float legacy_ms);
          ("verdicts_agree", Json.Bool agree);
        ];
      Json.Obj
        [ ("route", Json.Str "bounded_only_cold"); ("total_ms", Json.Float bounded_ms) ];
      Json.Obj
        [
          ("route", Json.Str "speedup");
          ("legacy_over_antichain", Json.Float speedup);
        ];
      Json.Obj [ ("route", Json.Str "spans"); ("rows", Json.List span_rows) ];
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
  Report.section
    "P9: compositional planner vs direct checking (composite corpus)";
  let manifest =
    Filename.concat (Filename.concat "examples" "specs") "fleet.manifest"
  in
  let fleet =
    if Sys.file_exists manifest then
      match
        Manifest.requests_of_file ~default_depth:depth ~extra_objects:2
          manifest
      with
      | Ok rs -> rs
      | Error m ->
          Format.printf "  (fleet manifest skipped: %s)@." m;
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
  let n = List.length requests in
  (* Cold totals are tens of milliseconds; best-of-[reps] on fresh
     caches, as in P8. *)
  let reps = 5 in
  let run_route plan =
    let once () =
      let t0 = Unix.gettimeofday () in
      let results, stats = Engine.run_batch ~domains:1 ~plan requests in
      (results, stats, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let best = ref (once ()) in
    for _ = 2 to reps do
      let (_, _, ms) as r = once () in
      let _, _, best_ms = !best in
      if ms < best_ms then best := r
    done;
    !best
  in
  let off_vs, (off_stats : Engine.stats), off_ms = run_route Plan.Off in
  let auto_vs, (auto_stats : Engine.stats), auto_ms = run_route Plan.Auto in
  (* Warm pass: same batch against the caches the cold planner pass
     populated — every composite (and every premise) is a hit. *)
  let cache = Vcache.create () in
  let dfa = Engine.dfa_cache () in
  let _ =
    Engine.run_batch ~domains:1 ~plan:Plan.Auto ~cache ~dfa_cache:dfa requests
  in
  let warm_once () =
    let t0 = Unix.gettimeofday () in
    let _, (s : Engine.stats) =
      Engine.run_batch ~domains:1 ~plan:Plan.Auto ~cache ~dfa_cache:dfa
        requests
    in
    (s, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let warm_stats, warm_ms =
    List.fold_left
      (fun (bs, bm) (s, m) -> if m < bm then (s, m) else (bs, bm))
      (warm_once ())
      [ warm_once (); warm_once () ]
  in
  (* The soundness gate, measured: planner and direct verdicts agree on
     status, confidence and evidence for every query — only provenance
     (which rule fired vs which procedure ran) differs. *)
  let agree =
    List.for_all2
      (fun (a : Engine.result) (d : Engine.result) ->
        Verdict.equal_modulo_provenance a.Engine.verdict d.Engine.verdict)
      auto_vs off_vs
  in
  let fewer_products = auto_stats.antichain_pairs < off_stats.antichain_pairs in
  let speedup = off_ms /. auto_ms in
  let t =
    Report.create
      [ "route"; "total ms"; "derived"; "fallback"; "ac pairs"; "dfa"; "notes" ]
  in
  let row name ms (s : Engine.stats) notes =
    Report.add_row t
      [
        name;
        Printf.sprintf "%.1f" ms;
        string_of_int s.derived_hits;
        string_of_int s.plan_fallbacks;
        string_of_int s.antichain_pairs;
        string_of_int s.dfa_compiles;
        notes;
      ]
  in
  row "direct (plan off, cold)" off_ms off_stats
    (Printf.sprintf "%d composite+atomic jobs" n);
  row "planner (plan auto, cold)" auto_ms auto_stats
    (Printf.sprintf "verdicts agree modulo provenance: %s"
       (if agree then "yes" else "NO"));
  row "planner (plan auto, warm)" warm_ms warm_stats
    (Printf.sprintf "%d/%d cache hits" warm_stats.cache_hits warm_stats.jobs);
  Report.print t;
  Format.printf
    "  product explorations: %d antichain pairs (off) vs %d (auto), \
     strictly fewer: %s; speedup (off/auto): %.2fx@."
    off_stats.antichain_pairs auto_stats.antichain_pairs
    (if fewer_products then "yes" else "NO")
    speedup;
  let stats_row route ms (s : Engine.stats) extra =
    Json.Obj
      ([
         ("route", Json.Str route);
         ("total_ms", Json.Float ms);
         ("jobs", Json.Int s.jobs);
         ("cache_hits", Json.Int s.cache_hits);
         ("derived_hits", Json.Int s.derived_hits);
         ("plan_fallbacks", Json.Int s.plan_fallbacks);
         ("antichain_pairs", Json.Int s.antichain_pairs);
         ("dfa_compiles", Json.Int s.dfa_compiles);
       ]
      @ extra)
  in
  write_campaign ~name:"P9"
    ~title:"compositional planner vs direct checking (composite corpus)"
    [
      stats_row "plan_off_cold" off_ms off_stats [];
      stats_row "plan_auto_cold" auto_ms auto_stats [];
      stats_row "plan_auto_warm" warm_ms warm_stats [];
      Json.Obj
        [
          ("route", Json.Str "agreement");
          ("derived_agree", Json.Bool agree);
          ("fewer_product_explorations", Json.Bool fewer_products);
          ( "product_pairs_saved",
            Json.Int (off_stats.antichain_pairs - auto_stats.antichain_pairs)
          );
          ("speedup_off_over_auto", Json.Float speedup);
        ];
    ]

(* P10: one edit in the ten-query fleet — an incremental watch round
   against a cold batch over the whole manifest.  The edit doubles
   GaugeR's sample step, a trace-set-only change (the universe is
   untouched), so the dependency map resolves it to exactly one query
   (`equal GaugeR||Log Gauge||Log`); the other nine are answered by
   their standing verdicts without touching the engine.  The
   acceptance bar is a >=10x wall-clock win for the incremental
   round. *)
let p10 () =
  Report.section
    "P10: incremental re-verification (posl.watch) vs cold batch";
  let src_dir = Filename.concat "examples" "specs" in
  let src_manifest = Filename.concat src_dir "fleet.manifest" in
  let src_spec = Filename.concat src_dir "fleet.oun" in
  if not (Sys.file_exists src_manifest && Sys.file_exists src_spec) then
    Format.printf "  (fleet corpus not found — campaign skipped)@."
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
    if edited = original then
      Format.printf "  (GaugeR traces line not found — campaign skipped)@."
    else
      match
        Manifest.requests_of_file ~default_depth:depth ~extra_objects:2
          manifest
      with
      | Error m -> Format.printf "  (fleet manifest skipped: %s)@." m
      | Ok requests ->
          let n = List.length requests in
          let reps = 5 in
          (* Cold baseline: the full cold [batch] pipeline — manifest
             parse, spec elaboration, verification — on fresh caches
             every repetition, best-of.  That is what a plain
             [posl-check batch] pays on every invocation and what the
             watcher's incremental round is up against. *)
          let cold_once () =
            let t0 = Unix.gettimeofday () in
            let requests =
              match
                Manifest.requests_of_file ~default_depth:depth
                  ~extra_objects:2 manifest
              with
              | Ok rs -> rs
              | Error m -> failwith ("P10 cold batch: " ^ m)
            in
            let _, (s : Engine.stats) =
              Engine.run_batch ~domains:1 ~plan:Plan.Auto requests
            in
            (s, (Unix.gettimeofday () -. t0) *. 1000.)
          in
          let cold_stats, cold_ms =
            let best = ref (cold_once ()) in
            for _ = 2 to reps do
              let (_, ms) as r = cold_once () in
              if ms < snd !best then best := r
            done;
            !best
          in
          let w =
            Watch.create ~default_depth:depth ~extra_objects:2 manifest
          in
          let cold_round =
            match Watch.poll w with
            | Some r -> r
            | None -> failwith "P10: first poll ran no round"
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
          let ge10x = speedup >= 10. in
          let t =
            Report.create
              [ "route"; "total ms"; "invalidated"; "reused"; "notes" ]
          in
          Report.add_row t
            [
              "cold batch (plan auto)";
              Printf.sprintf "%.1f" cold_ms;
              string_of_int n;
              "0";
              Printf.sprintf "%d jobs, best of %d" cold_stats.jobs reps;
            ];
          Report.add_row t
            [
              "watch cold round";
              Printf.sprintf "%.1f" cold_round.Watch.elapsed_ms;
              string_of_int cold_round.Watch.invalidated;
              string_of_int cold_round.Watch.reused;
              "first poll verifies everything";
            ];
          Report.add_row t
            [
              "watch incremental round";
              Printf.sprintf "%.1f" best_ms;
              string_of_int first.Watch.invalidated;
              string_of_int first.Watch.reused;
              Printf.sprintf "%d flip(s), best of %d rounds"
                (List.length first.Watch.flips)
                (List.length incs);
            ];
          Report.print t;
          Format.printf
            "  single-edit speedup (cold batch / incremental round): %.1fx \
             (>=10x: %s)@."
            speedup
            (if ge10x then "yes" else "NO");
          write_campaign ~name:"P10"
            ~title:"incremental watch round vs cold batch (single fleet edit)"
            [
              Json.Obj
                [
                  ("route", Json.Str "cold_batch");
                  ("total_ms", Json.Float cold_ms);
                  ("queries", Json.Int n);
                  ("jobs", Json.Int cold_stats.jobs);
                ];
              Json.Obj
                [
                  ("route", Json.Str "watch_cold_round");
                  ("total_ms", Json.Float cold_round.Watch.elapsed_ms);
                  ( "queries_invalidated",
                    Json.Int cold_round.Watch.invalidated );
                  ("queries_reused", Json.Int cold_round.Watch.reused);
                ];
              Json.Obj
                [
                  ("route", Json.Str "watch_incremental");
                  ("total_ms", Json.Float best_ms);
                  ("queries_invalidated", Json.Int first.Watch.invalidated);
                  ("queries_reused", Json.Int first.Watch.reused);
                  ("flips", Json.Int (List.length first.Watch.flips));
                  ("rounds_measured", Json.Int (List.length incs));
                ];
              Json.Obj
                [
                  ("route", Json.Str "summary");
                  ("speedup_cold_over_incremental", Json.Float speedup);
                  ("ge10x", Json.Bool ge10x);
                ];
            ]
  end

(* P11: observability overhead.  The same refinement batch with span
   recording off vs on (ring writes + per-job GC attrs + the runtime
   sampler's alarm and pause heartbeat), plus the marginal cost of a
   structured log event and the GC observations the sampler collected.
   The paper makes no claim here; the gated claim is the engineering
   one — full tracing stays within 2x of the untraced run (in practice
   it is percent-level).  [pause_p99] is the heartbeat-oversleep proxy
   in milliseconds, reported but not gated (it measures the OS
   scheduler as much as the GC). *)
let p11 () =
  Report.section
    "P11: observability overhead (spans off vs on, log events, gc sampler)";
  let batch = engine_batch ~depth:4 in
  let reps = 5 in
  let best_of f =
    let best = ref (f ()) in
    for _ = 2 to reps do
      let m = f () in
      if m < !best then best := m
    done;
    !best
  in
  let run_once () =
    let t0 = Unix.gettimeofday () in
    let _ = Engine.run_batch ~domains:1 batch in
    (Unix.gettimeofday () -. t0) *. 1000.
  in
  Telemetry.set_enabled false;
  let off_ms = best_of run_once in
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Runtime.start ();
  let stat0 = Gc.quick_stat () in
  let on_ms = best_of run_once in
  let stat1 = Gc.quick_stat () in
  Runtime.stop ();
  Telemetry.set_enabled false;
  let spans = List.length (Telemetry.spans ()) in
  let dropped = Telemetry.dropped () in
  Telemetry.reset ();
  (* marginal cost of one structured log event, amortized over a ring
     cap's worth of emissions (no sink installed — the serve/watch
     deployment default) *)
  let log_events = 10_000 in
  let log_ns =
    let t0 = Telemetry.now_ns () in
    for i = 1 to log_events do
      Tlog.event
        ~fields:[ ("i", Tlog.I i); ("ms", Tlog.F 0.5) ]
        "bench.p11"
    done;
    float_of_int (Telemetry.now_ns () - t0) /. float_of_int log_events
  in
  let pause = Pmetrics.histogram "posl_gc_pause_ms" in
  let pause_samples = Pmetrics.count pause in
  let pause_p99 = Pmetrics.percentile pause 99. in
  let overhead = on_ms /. off_ms in
  let le2x = on_ms <= 2. *. off_ms in
  let t = Report.create [ "route"; "value"; "notes" ] in
  Report.add_row t
    [
      "spans off";
      Printf.sprintf "%.1f ms" off_ms;
      Printf.sprintf "%d jobs, best of %d" (List.length batch) reps;
    ];
  Report.add_row t
    [
      "spans on";
      Printf.sprintf "%.1f ms" on_ms;
      Printf.sprintf "%d spans recorded, %d dropped, gc sampler running"
        spans dropped;
    ];
  Report.add_row t
    [
      "log event";
      Printf.sprintf "%.0f ns" log_ns;
      Printf.sprintf "%d events, no sink" log_events;
    ];
  Report.add_row t
    [
      "gc pauses";
      Printf.sprintf "%d samples" pause_samples;
      Printf.sprintf "p99 <= %.2f ms (heartbeat oversleep proxy)" pause_p99;
    ];
  Report.print t;
  Format.printf "  tracing overhead: %.2fx (<=2x: %s)@." overhead
    (if le2x then "yes" else "NO");
  let minor1 = stat1.Gc.minor_collections - stat0.Gc.minor_collections in
  let major1 = stat1.Gc.major_collections - stat0.Gc.major_collections in
  write_campaign ~name:"P11"
    ~title:"observability overhead (tracing, structured log, gc sampler)"
    [
      Json.Obj
        [
          ("route", Json.Str "spans_off");
          ("total_ms", Json.Float off_ms);
          ("jobs", Json.Int (List.length batch));
        ];
      Json.Obj
        [
          ("route", Json.Str "spans_on");
          ("total_ms", Json.Float on_ms);
          ("spans_recorded", Json.Int spans);
          ("spans_dropped", Json.Int dropped);
          ("gc_minor_collections", Json.Int minor1);
          ("gc_major_collections", Json.Int major1);
        ];
      Json.Obj
        [
          ("route", Json.Str "log");
          ("events", Json.Int log_events);
          ("ns_per_event", Json.Float log_ns);
        ];
      Json.Obj
        [
          ("route", Json.Str "gc");
          ("pause_samples", Json.Int pause_samples);
          ("pause_p99", Json.Float pause_p99);
        ];
      Json.Obj
        [
          ("route", Json.Str "summary");
          ("overhead_on_over_off", Json.Float overhead);
          ("tracing_le_2x", Json.Bool le2x);
        ];
    ]

(* Per-PR bench snapshots: with [--commit-snapshot], after all
   campaigns have landed under [out_dir], copy the P4..P11 trajectories
   next to the sources so the repository records the numbers each PR
   shipped with (CI uploads the same files as artifacts).  Off by
   default: a plain [dune exec bench/main.exe] writes only under
   [_build/bench] and leaves the committed baselines — the reference
   the [report] gate compares against — untouched. *)
let commit_snapshot =
  Array.exists (fun a -> a = "--commit-snapshot") Sys.argv

let snapshot_reports_to_root () =
  if commit_snapshot && Sys.file_exists "dune-project" then
    List.iter
      (fun name ->
        let file = Printf.sprintf "BENCH_%s.json" name in
        let src = Filename.concat out_dir file in
        if Sys.file_exists src then begin
          let contents =
            In_channel.with_open_bin src In_channel.input_all
          in
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc contents);
          Format.printf "  [snapshot -> %s]@." file
        end)
      [ "P4"; "P5"; "P6"; "P7"; "P8"; "P9"; "P10"; "P11" ]

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
    (* E11: Theorem 16 static side conditions (symbolic only) *)
    Test.make ~name:"E11/static/composability+properness"
      (stage (fun () ->
           ( Compose.composable Ex.client Ex.write_acc,
             Compose.proper ~refined:Ex.rw2 ~abstract:Ex.write_acc
               ~context:Ex.client )));
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
    (* P4: verdict-cache machinery — content digest of a query, and a
       warm batch answered entirely from the cache *)
    Test.make ~name:"P4/engine/digest"
      (stage (fun () ->
           Edigest.query ~universe ~depth:4
             (Job.Refine { refined = Ex.rw2; abstract = Ex.write_acc })));
    Test.make ~name:"P4/engine/warm-batch"
      (stage
         (let batch = engine_batch ~depth:3 in
          let cache = Vcache.create () in
          let _ = Engine.run_batch ~domains:1 ~cache batch in
          fun () -> Engine.run_batch ~domains:1 ~cache batch));
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
  p1 ();
  p2 ();
  p3 ();
  p4 ();
  p5 ();
  p6 ();
  p7 ();
  p8 ();
  p9 ();
  p10 ();
  p11 ();
  snapshot_reports_to_root ();
  run_bechamel ();
  Format.printf "@.done.@."
