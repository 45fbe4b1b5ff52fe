(* The compositional proof planner: derived verdicts agree with direct
   checking (the soundness gate), rule selection (Theorems 7/16,
   equality congruence), fallback accounting, Derived-provenance JSON
   and store round-trips, and the verdict-returning side-condition
   checkers it rests on. *)

module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Plan = Posl_engine.Plan
module Manifest = Posl_engine.Manifest
module Dig = Posl_engine.Digest
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Store = Posl_store.Store
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Eventset = Posl_sets.Eventset
module G = QCheck2.Gen
module V = Posl_verdict.Verdict

let u = Util.paper_universe
let depth = 4
let req ?(u = u) q = Engine.request ~depth ~universe:u q
let ( || ) = Compose.compose_exn

let is_derived (v : V.t) =
  match v.V.provenance.V.procedure with
  | Some (V.Derived _) -> true
  | Some _ | None -> false

let rule_of (v : V.t) =
  match v.V.provenance.V.procedure with
  | Some (V.Derived { rule; _ }) -> Some rule
  | Some _ | None -> None

let run ~plan requests = Engine.run_batch ~domains:2 ~plan requests

(* --- agreement: small-scope enumeration over the paper's cast ------- *)

(* Every way of pairing two controller viewpoints inside a shared
   client context, as refine and as equal queries: holding, refuted
   and bounded premises all occur, so this exercises derivation AND
   fallback paths — and each derived verdict must agree (modulo
   provenance) with the direct check. *)
let enumeration () =
  let controllers =
    [ Ex.read; Ex.read2; Ex.rw; Ex.rw2; Ex.write; Ex.write_acc ]
  in
  let contexts = [ Ex.client; Ex.client2 ] in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun c ->
              [
                req (Job.refine ~refined:(a || c) ~abstract:(b || c));
                req (Job.equal ~left:(a || c) ~right:(b || c));
              ])
            contexts)
        controllers)
    controllers

let test_enumeration_agrees () =
  let requests = enumeration () in
  let auto, astats = run ~plan:Plan.Auto requests in
  let direct, _ = run ~plan:Plan.Off requests in
  List.iter2
    (fun (a : Engine.result) (d : Engine.result) ->
      Util.check_bool
        (Printf.sprintf "agree: %s" a.Engine.request.Engine.label)
        true
        (V.equal_modulo_provenance a.Engine.verdict d.Engine.verdict))
    auto direct;
  (* The scope is not vacuous: derivations and fallbacks both occur. *)
  Util.check_bool "some verdicts derived" true
    (astats.Engine.derived_hits > 0);
  Util.check_bool "some queries fell back" true
    (astats.Engine.plan_fallbacks > 0);
  (* Soundness gate: a derived verdict always holds exactly. *)
  List.iter
    (fun (r : Engine.result) ->
      if is_derived r.Engine.verdict then begin
        Util.check_bool "derived is a hold" true
          (V.is_holds r.Engine.verdict);
        Util.check_bool "derived is exact" true
          (r.Engine.verdict.V.confidence = Some V.Exact)
      end)
    auto

(* --- rule selection ------------------------------------------------- *)

let test_theorem7_rule () =
  let q = req (Job.refine ~refined:(Ex.rw2 || Ex.client) ~abstract:(Ex.rw || Ex.client)) in
  let results, stats = run ~plan:Plan.Auto [ q ] in
  let v = (List.hd results).Engine.verdict in
  Alcotest.(check (option string)) "theorem7 fired" (Some "theorem7") (rule_of v);
  Util.check_int "one derived" 1 stats.Engine.derived_hits;
  Util.check_bool "holds exactly" true
    (V.is_holds v && v.V.confidence = Some V.Exact)

let test_equal_congruence_rule () =
  (* Commutativity: both parts shared crosswise, no premise needed. *)
  let q =
    req
      (Job.equal
         ~left:(Ex.client || Ex.write_acc)
         ~right:(Ex.write_acc || Ex.client))
  in
  let results, _ = run ~plan:Plan.Auto [ q ] in
  let v = (List.hd results).Engine.verdict in
  Alcotest.(check (option string)) "congruence fired"
    (Some "equal-congruence") (rule_of v);
  (match v.V.provenance.V.procedure with
  | Some (V.Derived { premises; _ }) ->
      Util.check_int "no premises needed" 0 (List.length premises)
  | _ -> Alcotest.fail "expected derived provenance");
  let direct, _ = run ~plan:Plan.Off [ q ] in
  Util.check_bool "agrees with direct" true
    (V.equal_modulo_provenance v (List.hd direct).Engine.verdict)

(* A disjoint-communication fleet (cf. examples/compositional_upgrade):
   three components that never talk to each other, so three-part
   systems exist and the outer refinement step goes through Theorem 16
   (its changed part is a two-object component). *)
let fleet () =
  let g = Oid.v "fg" and l = Oid.v "fl" and k = Oid.v "fk" in
  let env = Oset.cofin_of_list [ g; l; k ] in
  let calls callee ms =
    Eventset.calls ~args:Posl_sets.Argsel.none_only ~callers:env
      ~callees:(Oset.singleton callee) (Mset.of_list (List.map Mth.v ms))
  in
  let spec name obj alpha = Spec.v ~name ~objs:[ obj ] ~alpha Tset.all in
  let gauge = spec "FGauge" g (calls g [ "SAMPLE" ]) in
  let gauge2 = spec "FGauge2" g (calls g [ "SAMPLE"; "OPEN"; "CLOSE" ]) in
  let log = spec "FLog" l (calls l [ "APPEND" ]) in
  let clock = spec "FClock" k (calls k [ "TICK" ]) in
  (gauge, gauge2, log, clock)

let test_theorem16_nested () =
  let gauge, gauge2, log, clock = fleet () in
  let universe = Spec.adequate_universe [ gauge; gauge2; log; clock ] in
  let q =
    req ~u:universe
      (Job.refine
         ~refined:((gauge2 || log) || clock)
         ~abstract:((gauge || log) || clock))
  in
  let results, stats = run ~plan:Plan.Auto [ q ] in
  let v = (List.hd results).Engine.verdict in
  Alcotest.(check (option string)) "theorem16 fired" (Some "theorem16")
    (rule_of v);
  (* composable + proper + refines, each a recorded sub-query; the
     refines premise decomposed again (Theorem 7), so ≥2 derivations. *)
  (match v.V.provenance.V.procedure with
  | Some (V.Derived { premises; _ }) ->
      Util.check_int "three premises" 3 (List.length premises)
  | _ -> Alcotest.fail "expected derived provenance");
  Util.check_bool "recursive derivation" true (stats.Engine.derived_hits >= 2);
  let direct, _ = run ~plan:Plan.Off [ q ] in
  Util.check_bool "agrees with direct" true
    (V.equal_modulo_provenance v (List.hd direct).Engine.verdict)

(* Premise digests are the store keys of the premise queries — the
   derivation can be replayed by re-answering them. *)
let test_premise_digests () =
  let q =
    req (Job.refine ~refined:(Ex.rw2 || Ex.client) ~abstract:(Ex.rw || Ex.client))
  in
  let results, _ = run ~plan:Plan.Auto [ q ] in
  match (List.hd results).Engine.verdict.V.provenance.V.procedure with
  | Some (V.Derived { premises; _ }) ->
      let expected =
        Dig.query_base ~universe:u
          (Job.refine ~refined:Ex.rw2 ~abstract:Ex.rw)
      in
      Alcotest.(check (list string))
        "premises are the sub-query store keys"
        [ Option.get expected ] premises
  | _ -> Alcotest.fail "expected derived provenance"

(* --- fallbacks ------------------------------------------------------ *)

let test_refuted_premise_falls_back () =
  (* Read ⊑ Read2 is refuted: a refuted premise proves nothing about
     the composite, so the planner must decline and direct checking
     must answer (here: refuted, since the abstract side's alphabet is
     not contained in the refined side's). *)
  let q =
    req
      (Job.refine ~refined:(Ex.read || Ex.client)
         ~abstract:(Ex.read2 || Ex.client))
  in
  let auto, stats = run ~plan:Plan.Auto [ q ] in
  Util.check_int "no derivation" 0 stats.Engine.derived_hits;
  Util.check_int "one fallback" 1 stats.Engine.plan_fallbacks;
  let v = (List.hd auto).Engine.verdict in
  Util.check_bool "not derived" false (is_derived v);
  let direct, _ = run ~plan:Plan.Off [ q ] in
  Util.check_bool "agrees with direct" true
    (V.equal_modulo_provenance v (List.hd direct).Engine.verdict)

let test_no_shared_part_falls_back () =
  (* Both operands composite but nothing shared: no rule applies. *)
  let q =
    req
      (Job.refine ~refined:(Ex.rw2 || Ex.client2)
         ~abstract:(Ex.rw || Ex.client))
  in
  let _, stats = run ~plan:Plan.Auto [ q ] in
  Util.check_int "no derivation" 0 stats.Engine.derived_hits;
  Util.check_int "one fallback" 1 stats.Engine.plan_fallbacks

(* Sharing is by content, names included: a separately elaborated copy
   of the same spec text is the shared part, a renamed copy of the same
   body is not. *)
let test_shared_part_by_content () =
  let client name =
    let text =
      Printf.sprintf
        "spec %s {\n\
        \  objects c;\n\
        \  sort Env = all except { c };\n\
        \  alphabet call c -> Env : W(data), OK;\n\
        \  traces prs (<c,o,W(_)> <c,om,OK>)*;\n\
         }\n"
        name
    in
    match Manifest.specs_of_source ~extra_objects:2 ~file:"client.oun" text with
    | Ok ([ s ], _) -> s
    | Ok _ -> Alcotest.fail "client.oun: expected one spec"
    | Error e -> Alcotest.failf "client.oun: %s" (Manifest.input_error_message e)
  in
  let c1 = client "Client" and c2 = client "Client" and c3 = client "Customer" in
  let u = Spec.adequate_universe [ Ex.rw2; Ex.rw; c1; c2; c3 ] in
  let query shared =
    req ~u (Job.refine ~refined:(Ex.rw2 || c1) ~abstract:(Ex.rw || shared))
  in
  let results, stats = run ~plan:Plan.Auto [ query c2 ] in
  Alcotest.(check (option string)) "the copy is shared" (Some "theorem7")
    (rule_of (List.hd results).Engine.verdict);
  Util.check_int "one derived" 1 stats.Engine.derived_hits;
  let results, stats = run ~plan:Plan.Auto [ query c3 ] in
  Util.check_int "the renamed copy is not shared" 0 stats.Engine.derived_hits;
  Util.check_int "one fallback" 1 stats.Engine.plan_fallbacks;
  let direct, _ = run ~plan:Plan.Off [ query c3 ] in
  Util.check_bool "agrees with direct" true
    (V.equal_modulo_provenance (List.hd results).Engine.verdict
       (List.hd direct).Engine.verdict)

let test_atomic_queries_untouched () =
  (* No composition provenance anywhere: the planner is silent — no
     derived hits AND no fallbacks counted. *)
  let qs =
    [
      req (Job.refine ~refined:Ex.read2 ~abstract:Ex.read);
      req (Job.equal ~left:Ex.read ~right:Ex.read);
      req (Job.deadlock ~left:Ex.client ~right:Ex.write_acc);
    ]
  in
  let _, stats = run ~plan:Plan.Auto qs in
  Util.check_int "no derivations" 0 stats.Engine.derived_hits;
  Util.check_int "no fallbacks" 0 stats.Engine.plan_fallbacks

let test_plan_off_never_derives () =
  let requests = enumeration () in
  let results, stats = run ~plan:Plan.Off requests in
  Util.check_int "no derivations" 0 stats.Engine.derived_hits;
  Util.check_int "no fallbacks" 0 stats.Engine.plan_fallbacks;
  Util.check_bool "no derived provenance" false
    (List.exists (fun (r : Engine.result) -> is_derived r.Engine.verdict) results)

(* --- persistence ---------------------------------------------------- *)

let test_derived_json_roundtrip () =
  let q =
    req (Job.refine ~refined:(Ex.rw2 || Ex.client) ~abstract:(Ex.rw || Ex.client))
  in
  let results, _ = run ~plan:Plan.Auto [ q ] in
  let v = (List.hd results).Engine.verdict in
  Util.check_bool "precondition: derived" true (is_derived v);
  match V.of_json (V.to_json v) with
  | Ok v' -> Util.check_bool "round-trips" true (V.equal v v')
  | Error e -> Alcotest.fail ("of_json: " ^ e)

let with_tmpdir f =
  let dir = Filename.temp_file "posl_plan" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_derived_store_roundtrip () =
  with_tmpdir @@ fun dir ->
  let q =
    req (Job.refine ~refined:(Ex.rw2 || Ex.client) ~abstract:(Ex.rw || Ex.client))
  in
  let cold_v =
    let s = Store.open_ dir in
    Fun.protect
      ~finally:(fun () -> Store.close s)
      (fun () ->
        let results, stats =
          Engine.run_batch ~domains:1 ~plan:Plan.Auto ~store:s [ q ]
        in
        Util.check_bool "derived verdicts are persisted" true
          (stats.Engine.store_writes > 0);
        (List.hd results).Engine.verdict)
  in
  (* A fresh process (new session, cold cache) answers the composite
     from the store — Derived provenance intact. *)
  let s = Store.open_ dir in
  Fun.protect
    ~finally:(fun () -> Store.close s)
    (fun () ->
      let results, stats =
        Engine.run_batch ~domains:1 ~plan:Plan.Auto ~store:s [ q ]
      in
      Util.check_bool "warm run hits the store" true
        (stats.Engine.store_hits > 0);
      Util.check_int "warm run computes nothing" 0 stats.Engine.derived_hits;
      let v = (List.hd results).Engine.verdict in
      Util.check_bool "stored ≡ derived" true (V.equal cold_v v);
      Util.check_bool "provenance survives" true (is_derived v))

(* --- the side-condition verdicts (Compose.*_verdict) ---------------- *)

let test_composable_verdict () =
  let v = Compose.composable_verdict Ex.client Ex.write_acc in
  Util.check_bool "client/write_acc composable" true (V.is_holds v);
  Util.check_bool "exact" true (v.V.confidence = Some V.Exact);
  (* Read's alphabet meets the internals of the RW2‖Client component. *)
  let v = Compose.composable_verdict (Ex.rw2 || Ex.client) Ex.read in
  Util.check_bool "refuted" true (V.is_refuted v);
  Util.check_bool "carries witness" true
    (List.exists (function V.Not_composable _ -> true | _ -> false) v.V.evidence)

let test_proper_verdict () =
  let v =
    Compose.proper_verdict ~refined:Ex.rw2 ~abstract:Ex.write_acc
      ~context:Ex.client
  in
  Util.check_bool "paper upgrade proper" true (V.is_holds v);
  Util.check_bool "agrees with boolean" true
    (Compose.proper ~refined:Ex.rw2 ~abstract:Ex.write_acc ~context:Ex.client);
  (* Absorbing the monitor om hides the client's OK events: improper.
     (The refined alphabet must avoid the absorbed pair's internal
     events to be a well-formed spec at all.) *)
  let write_m =
    Spec.v ~name:"WriteM"
      ~objs:[ Ex.o; Ex.om ]
      ~alpha:
        (Eventset.calls ~args:Posl_sets.Argsel.none_only
           ~callers:(Oset.cofin_of_list [ Ex.o; Ex.om ])
           ~callees:(Oset.singleton Ex.o)
           (Mset.of_list [ Ex.m_ow; Ex.m_cw ]))
      Tset.all
  in
  let v =
    Compose.proper_verdict ~refined:write_m ~abstract:Ex.write
      ~context:Ex.client
  in
  Util.check_bool "absorbing om is improper" true (V.is_refuted v);
  Util.check_bool "carries α₀ witness" true
    (List.exists (function V.Improper _ -> true | _ -> false) v.V.evidence);
  Util.check_bool "agrees with boolean" false
    (Compose.proper ~refined:write_m ~abstract:Ex.write ~context:Ex.client)

(* --- random instances ----------------------------------------------- *)

let sc = Util.sc
let k0 = Oid.v "k0"
let k1 = Oid.v "k1"

let qsuite =
  [
    (* Random viewpoints of k0 in a random shared k1 context: whatever
       the premise turns out to be (holding, refuted, bounded), the
       planner's answer must agree with direct checking. *)
    Util.qtest ~count:25 "derived ≡ direct (random refine)"
      (G.triple (Gen.interface_spec sc k0) (Gen.interface_spec sc k0)
         (Gen.interface_spec sc k1))
      (fun (a, b, c) ->
        let q =
          Engine.request ~depth ~universe:sc.Posl_gen.Gen.universe
            (Job.refine
               ~refined:(Compose.interface a c)
               ~abstract:(Compose.interface b c))
        in
        let auto, _ = run ~plan:Plan.Auto [ q ] in
        let direct, _ = run ~plan:Plan.Off [ q ] in
        V.equal_modulo_provenance (List.hd auto).Engine.verdict
          (List.hd direct).Engine.verdict);
    Util.qtest ~count:25 "derived ≡ direct (random equal)"
      (G.triple (Gen.interface_spec sc k0) (Gen.interface_spec sc k0)
         (Gen.interface_spec sc k1))
      (fun (a, b, c) ->
        let q =
          Engine.request ~depth ~universe:sc.Posl_gen.Gen.universe
            (Job.equal
               ~left:(Compose.interface a c)
               ~right:(Compose.interface b c))
        in
        let auto, _ = run ~plan:Plan.Auto [ q ] in
        let direct, _ = run ~plan:Plan.Off [ q ] in
        V.equal_modulo_provenance (List.hd auto).Engine.verdict
          (List.hd direct).Engine.verdict);
  ]

let suite =
  [
    Alcotest.test_case "small scope: derived ≡ direct over the cast" `Quick
      test_enumeration_agrees;
    Alcotest.test_case "Theorem 7 rule fires" `Quick test_theorem7_rule;
    Alcotest.test_case "equality congruence fires" `Quick
      test_equal_congruence_rule;
    Alcotest.test_case "Theorem 16 on a nested system" `Quick
      test_theorem16_nested;
    Alcotest.test_case "premise digests are store keys" `Quick
      test_premise_digests;
    Alcotest.test_case "refuted premise: fallback" `Quick
      test_refuted_premise_falls_back;
    Alcotest.test_case "no shared part: fallback" `Quick
      test_no_shared_part_falls_back;
    Alcotest.test_case "shared parts are recognised by content" `Quick
      test_shared_part_by_content;
    Alcotest.test_case "atomic queries: planner silent" `Quick
      test_atomic_queries_untouched;
    Alcotest.test_case "plan off never derives" `Quick
      test_plan_off_never_derives;
    Alcotest.test_case "Derived provenance JSON round-trip" `Quick
      test_derived_json_roundtrip;
    Alcotest.test_case "derived verdicts persist and reload" `Quick
      test_derived_store_roundtrip;
    Alcotest.test_case "composable_verdict" `Quick test_composable_verdict;
    Alcotest.test_case "proper_verdict" `Quick test_proper_verdict;
  ]
  @ qsuite
