(* The batch verification engine: cache soundness (cached verdict ≡
   freshly computed verdict), scheduling determinism across domain
   counts, digest separation of distinct queries, and the engine's
   stats accounting. *)

module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Manifest = Posl_engine.Manifest
module Cache = Posl_engine.Cache
module Counters = Posl_engine.Counters
module Dig = Posl_engine.Digest
module Spec = Posl_core.Spec
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Prs_cache = Posl_tset.Prs_cache
module Gen = Posl_gen.Gen
module Ex = Posl_core.Examples_paper
module Oid = Posl_ident.Oid
module Mth = Posl_ident.Mth
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Eventset = Posl_sets.Eventset
module G = QCheck2.Gen
module V = Posl_verdict.Verdict
module Telemetry = Posl_telemetry.Telemetry

let u = Util.paper_universe
let depth = 4

let req ?depth:(d = depth) q = Engine.request ~depth:d ~universe:u q

(* A representative mixed batch over the paper's cast: every query
   kind, positive and negative verdicts. *)
let paper_batch () =
  [
    req (Job.Refine { refined = Ex.read2; abstract = Ex.read });
    req (Job.Refine { refined = Ex.read; abstract = Ex.read2 });
    req (Job.Refine { refined = Ex.write_acc; abstract = Ex.write });
    req (Job.Refine { refined = Ex.rw2; abstract = Ex.write_acc });
    req (Job.Refine { refined = Ex.client2; abstract = Ex.client });
    req (Job.Compose { left = Ex.client; right = Ex.write_acc });
    req (Job.Compose { left = Ex.read; right = Ex.write });
    req
      (Job.Proper
         { refined = Ex.rw2; abstract = Ex.write_acc; context = Ex.client });
    req (Job.Deadlock { left = Ex.client; right = Ex.write_acc });
    req (Job.Deadlock { left = Ex.client2; right = Ex.write_acc });
    req (Job.Equal { left = Ex.read; right = Ex.read });
    req (Job.Equal { left = Ex.write; right = Ex.write });
    req (Job.Equal { left = Ex.write; right = Ex.write_acc });
    req (Job.Refine { refined = Ex.read2; abstract = Ex.read });
    (* repeat: cache food *)
    req (Job.Equal { left = Ex.read; right = Ex.read });
  ]

let verdicts results = List.map (fun r -> r.Engine.verdict) results

(* Structural verdict-list equality: V.equal ignores the elapsed-time
   provenance, which legitimately differs between runs. *)
let verdicts_equal a b =
  List.length a = List.length b && List.for_all2 V.equal a b

(* --- cache behaviour ------------------------------------------------ *)

let test_cache_hit_on_repeat () =
  let session = Engine.session () in
  let q = req (Job.Refine { refined = Ex.read2; abstract = Ex.read }) in
  let results, stats = Engine.run_jobs ~domains:1 session [ q; q ] in
  Util.check_int "jobs" 2 stats.Engine.jobs;
  Util.check_int "misses" 1 stats.Engine.cache_misses;
  Util.check_int "hits" 1 stats.Engine.cache_hits;
  (match results with
  | [ a; b ] ->
      Util.check_bool "first computed" false a.Engine.cached;
      Util.check_bool "second cached" true b.Engine.cached;
      Util.check_bool "verdicts identical" true
        (V.equal a.Engine.verdict b.Engine.verdict)
  | _ -> Alcotest.fail "expected two results");
  (* A later batch against the same session is all hits. *)
  let _, stats2 = Engine.run_jobs ~domains:1 session [ q ] in
  Util.check_int "warm misses" 0 stats2.Engine.cache_misses;
  Util.check_int "warm hits" 1 stats2.Engine.cache_hits

let test_cached_equals_fresh_paper () =
  let session = Engine.session () in
  let batch = paper_batch () in
  let cold, _ = Engine.run_jobs ~domains:2 session batch in
  let warm, warm_stats = Engine.run_jobs ~domains:2 session batch in
  Util.check_int "warm batch recomputes nothing" 0
    warm_stats.Engine.cache_misses;
  Util.check_bool "cold ≡ warm verdicts" true
    (verdicts_equal (verdicts cold) (verdicts warm));
  (* And both equal a computation that never saw the cache. *)
  List.iter2
    (fun (r : Engine.result) (q : Engine.request) ->
      let fresh =
        Job.run (Tset.ctx q.Engine.universe) ~depth:q.Engine.depth
          q.Engine.query
      in
      Util.check_bool
        (Printf.sprintf "cached ≡ fresh (%s)" q.Engine.label)
        true
        (V.equal r.Engine.verdict fresh))
    warm batch

let test_stats_accounting () =
  let results, stats = Engine.run_batch ~domains:2 (paper_batch ()) in
  Util.check_int "jobs = batch size" (List.length results) stats.Engine.jobs;
  Util.check_int "hits + misses + uncacheable = jobs"
    stats.Engine.jobs
    (stats.Engine.cache_hits + stats.Engine.cache_misses
   + stats.Engine.uncacheable);
  Util.check_bool "busy time accumulated" true (stats.Engine.busy_ms > 0.)

(* Traced at two domains, every job's span nests under the batch's span
   and carries its trace id, whichever domain answered it. *)
let test_batch_span_tree () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
  @@ fun () ->
  let results, _ =
    Telemetry.with_context { Telemetry.trace_id = Some "batch-1"; parent = None }
      (fun () -> Engine.run_jobs ~domains:2 (Engine.session ()) (paper_batch ()))
  in
  let spans = Telemetry.spans () in
  let named n = List.filter (fun (s : Telemetry.span) -> s.name = n) spans in
  match named "engine.batch" with
  | [ batch ] ->
      let jobs = named "engine.job" in
      Util.check_int "one engine.job span per result" (List.length results)
        (List.length jobs);
      List.iter
        (fun (j : Telemetry.span) ->
          Alcotest.(check (option int)) "parent is engine.batch"
            (Some batch.Telemetry.id) j.Telemetry.parent;
          Alcotest.(check (option string)) "trace id" (Some "batch-1")
            j.Telemetry.trace_id)
        jobs
  | l -> Alcotest.failf "%d engine.batch spans" (List.length l)

(* --- determinism across domain counts ------------------------------- *)

let test_deterministic_across_domains () =
  (* one session kept through every run, its verdict cache emptied
     before each: domain count 1 runs cold, 2 and 4 recompute every
     verdict against warm contexts — verdicts must be identical either
     way *)
  let session = Engine.session () in
  let run domains =
    Cache.clear (Engine.session_cache session);
    verdicts (fst (Engine.run_jobs ~domains session (paper_batch ())))
  in
  let v1 = run 1 and v2 = run 2 and v4 = run 4 in
  Util.check_bool "domains 1 = 2" true (verdicts_equal v1 v2);
  Util.check_bool "domains 1 = 4" true (verdicts_equal v1 v4)

(* --- the shared compiled-automata cache ------------------------------ *)

let test_dfa_compiles_do_not_scale_with_domains () =
  let run domains =
    snd (Engine.run_batch ~domains (paper_batch ()))
  in
  let s1 = run 1 and s4 = run 4 in
  Util.check_bool "serial pass compiles automata" true
    (s1.Engine.dfa_compiles > 0);
  (* the per-domain compilation tax is gone: 4 domains share one
     cache, so compiles stay at the distinct-regex count (plus
     the occasional benign duplicate), not 4× the serial count *)
  Util.check_bool "4-domain compiles ≪ 4× serial compiles" true
    (s4.Engine.dfa_compiles < 2 * s1.Engine.dfa_compiles);
  Util.check_bool "the shared cache is actually hit" true
    (s4.Engine.dfa_cache_hits > 0)

let test_dfa_cache_warm_across_batches () =
  let session = Engine.session () in
  let batch = paper_batch () in
  let run () =
    (* an empty verdict cache each time: every job recomputes, so the
       monitors must re-resolve the compiled automata *)
    Cache.clear (Engine.session_cache session);
    snd (Engine.run_jobs ~domains:2 session batch)
  in
  let cold = run () in
  let warm = run () in
  Util.check_bool "cold batch compiled automata" true
    (cold.Engine.dfa_compiles > 0);
  Util.check_int "warm batch recompiles nothing" 0 warm.Engine.dfa_compiles;
  let agg = Engine.dfa_cache_stats (Engine.session_dfa_cache session) in
  Util.check_int "registry aggregates both passes"
    (cold.Engine.dfa_compiles + warm.Engine.dfa_compiles)
    agg.Prs_cache.misses

(* DFA work is counted where an automaton is resolved, so a batch's
   counts must equal the change in its session's own cache statistics
   over the batch — benign duplicate compiles under 2 domains
   included. *)
let test_dfa_counts_match_session_view () =
  List.iter
    (fun domains ->
      let session = Engine.session () in
      let view () = Engine.dfa_cache_stats (Engine.session_dfa_cache session) in
      let pass label =
        Cache.clear (Engine.session_cache session);
        let before = view () in
        let _, st = Engine.run_jobs ~domains session (paper_batch ()) in
        let after = view () in
        let what = Printf.sprintf "%s, %d domain(s): " label domains in
        Util.check_int (what ^ "compiles = cache misses")
          (after.Prs_cache.misses - before.Prs_cache.misses)
          st.Engine.dfa_compiles;
        Util.check_int (what ^ "hits = cache hits")
          (after.Prs_cache.hits - before.Prs_cache.hits)
          st.Engine.dfa_cache_hits;
        st
      in
      let cold = pass "cold" in
      Util.check_bool "cold pass compiled automata" true
        (cold.Engine.dfa_compiles > 0);
      ignore (pass "warm"))
    [ 1; 2 ]

(* One registry: requests whose universes are structurally equal but
   physically distinct land on one context, and so on one set of
   compiled automata. *)
let test_equal_universes_share_a_context () =
  let u1 = Spec.adequate_universe ~extra_objects:2 Ex.all_specs
  and u2 = Spec.adequate_universe ~extra_objects:2 Ex.all_specs in
  Util.check_bool "universes are distinct values" true (u1 != u2);
  Util.check_bool "universes are structurally equal" true (u1 = u2);
  let session = Engine.session () in
  Util.check_bool "one context for both" true
    (Engine.session_ctx session u1 == Engine.session_ctx session u2)

(* run_batch is a throwaway session: verdicts and work counts equal a
   fresh session's run_jobs. *)
let test_run_batch_is_a_fresh_session () =
  let rb, a = Engine.run_batch ~domains:1 (paper_batch ()) in
  let rj, b = Engine.run_jobs ~domains:1 (Engine.session ()) (paper_batch ()) in
  Util.check_bool "verdicts" true (verdicts_equal (verdicts rb) (verdicts rj));
  let work (s : Engine.stats) =
    [ s.jobs; s.cache_hits; s.cache_misses; s.uncacheable; s.store_hits;
      s.store_misses; s.store_writes; s.derived_hits; s.plan_fallbacks;
      s.dfa_cache_hits; s.dfa_compiles; s.antichain_pairs;
      s.antichain_prunes; s.interned_states ]
  in
  Alcotest.(check (list int)) "work counts" (work a) (work b)

(* --- uncacheable (opaque) queries ----------------------------------- *)

let pointwise_spec =
  let o = Oid.v "o" in
  Spec.v ~name:"Tiny" ~objs:[ o ]
    ~alpha:
      (Eventset.calls
         ~callers:(Oset.cofin_of_list [ o ])
         ~callees:(Oset.singleton o)
         (Mset.singleton (Mth.v "R")))
    (Tset.pointwise "len<=2" (fun h -> Posl_trace.Trace.length h <= 2))

let test_opaque_uncacheable () =
  Alcotest.(check (option string))
    "no digest" None
    (Dig.query ~universe:u ~depth
       (Job.Equal { left = pointwise_spec; right = pointwise_spec }));
  let q = req (Job.Equal { left = pointwise_spec; right = pointwise_spec }) in
  let results, stats = Engine.run_batch ~domains:1 [ q; q ] in
  Util.check_int "both uncacheable" 2 stats.Engine.uncacheable;
  Util.check_int "no cache traffic" 0
    (stats.Engine.cache_hits + stats.Engine.cache_misses);
  Util.check_bool "still answered, identically" true
    (match verdicts results with
    | [ a; b ] -> V.equal a b
    | _ -> false)

(* --- digests --------------------------------------------------------- *)

let test_digest_separates_paper_specs () =
  let keys =
    List.map
      (fun s ->
        match Dig.spec_key ~universe:u s with
        | Some k -> k
        | None -> Alcotest.fail ("opaque key for " ^ Spec.name s))
      Ex.all_specs
  in
  Util.check_int "all paper specs have distinct keys"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_digest_separates_kinds_and_depth () =
  let qs =
    [
      Job.Refine { refined = Ex.write_acc; abstract = Ex.write };
      Job.Compose { left = Ex.write_acc; right = Ex.write };
      Job.Deadlock { left = Ex.write_acc; right = Ex.write };
      Job.Equal { left = Ex.write_acc; right = Ex.write };
      Job.Proper
        { refined = Ex.write_acc; abstract = Ex.write; context = Ex.client };
    ]
  in
  let digs =
    List.map
      (fun q ->
        match Dig.query ~universe:u ~depth q with
        | Some d -> d
        | None -> Alcotest.fail "unexpectedly opaque")
      qs
  in
  Util.check_int "kinds separated" (List.length digs)
    (List.length (List.sort_uniq compare digs));
  let q = Job.Refine { refined = Ex.read2; abstract = Ex.read } in
  Util.check_bool "depth separated" true
    (Dig.query ~universe:u ~depth:4 q <> Dig.query ~universe:u ~depth:6 q)

let count_request ~counted =
  match
    Manifest.specs_of_source ~extra_objects:2 ~file:"count.oun"
      (Util.count_source ~counted)
  with
  | Error e -> Alcotest.failf "count.oun: %s" (Manifest.input_error_message e)
  | Ok (specs, universe) ->
      let find n = List.find (fun s -> Spec.name s = n) specs in
      Engine.request ~depth:6 ~universe
        (Job.Refine { refined = find "S"; abstract = find "Bound" })

let test_count_classes_key_apart () =
  let a = count_request ~counted:("OW", "CW")
  and b = count_request ~counted:("OR", "CR") in
  Util.check_bool "distinct base keys" true
    (Dig.query_base ~universe:a.Engine.universe a.Engine.query
    <> Dig.query_base ~universe:b.Engine.universe b.Engine.query);
  let fresh (r : Engine.request) =
    Job.run (Tset.ctx r.Engine.universe) ~depth:6 r.Engine.query
  in
  Util.check_bool "a holds" true (V.to_bool (fresh a));
  Util.check_bool "b fails" false (V.to_bool (fresh b));
  (* one batch, one cache, both orders: neither answers the other *)
  List.iter
    (fun batch ->
      let results, stats = Engine.run_batch ~domains:1 batch in
      Util.check_int "no cache hits" 0 stats.Engine.cache_hits;
      List.iter2
        (fun (r : Engine.result) q ->
          Util.check_bool "batch ≡ fresh" true (V.equal r.Engine.verdict (fresh q)))
        results batch)
    [ [ a; b ]; [ b; a ] ]

(* The persistent store's keys, pinned: a change to the serialization
   behind [Digest.query_base] would orphan every record an existing
   verdicts.log holds, so any moved byte must show here.  One query of
   each kind over the paper cast (Read2 is a [Forall_obj] body), and a
   parsed [Counting] body. *)
let test_store_keys_pinned () =
  let pinned =
    [
      ( "bce055c4af97f562b7e44f5190959043",
        req (Job.refine ~refined:Ex.read2 ~abstract:Ex.read) );
      ( "020b412efdcfa6e252b6e1429fff9521",
        req (Job.compose ~left:Ex.client ~right:Ex.write_acc) );
      ( "c041f34692f783ae6ff99357fc8b8cf4",
        req
          (Job.proper ~refined:Ex.rw2 ~abstract:Ex.write_acc
             ~context:Ex.client) );
      ( "fea8cbdca5a19a51608fb8439dffad96",
        req (Job.deadlock ~left:Ex.client2 ~right:Ex.write_acc) );
      ( "33d0a2e4340254356cd3acf86d0df327",
        req (Job.equal ~left:Ex.write ~right:Ex.write_acc) );
      ("115abf3eed651a7aa6518170d20f9459", count_request ~counted:("OW", "CW"));
    ]
  in
  List.iter
    (fun (hex, (r : Engine.request)) ->
      Alcotest.(check (option string))
        r.Engine.label (Some hex)
        (Dig.query_base ~universe:r.Engine.universe r.Engine.query))
    pinned

(* --- one shared context ≡ fresh contexts ------------------------------ *)

(* Two templates of the benchmark's scale corpus (perfbench/corpus.py),
   the ones whose composites hide internal events: Boiten's granularity
   refinements and Sekerinski & Zhang's channels, deadlock queries
   included, each plus one [A||B] refinement the benchmark does not
   pose.  [$TRACE] and [$VOCAB] pick one of a family's four edit
   states; every other [$name] is renamed per family. *)
type template = {
  names : string list;
  text : string;
  trace : string * string;
  vocab : string * string;
  queries : string list;
}

let boiten =
  {
    names =
      [ "b"; "u"; "PUT"; "ACK"; "GET"; "DONE"; "SYNC"; "FLUSH"; "Put";
        "PutAck"; "PutAckSync"; "PutEarly"; "PutAcc"; "User"; "User2" ];
    text =
      {|spec $Put {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $GET;
  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$GET>))*;
}
spec $PutAck {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
$TRACE}
spec $PutAckSync {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET, $VOCAB;
  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$ACK> <x,$b,$GET> <x,$b,$VOCAB>))*;
}
spec $PutEarly {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$GET> <x,$b,$PUT(_)>))*;
}
spec $PutAcc {
  objects $b;
  sort Env = all except { $b };
  alphabet call Env -> $b : $PUT(data), $ACK, $GET;
  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$PUT(_)>* <x,$b,$GET>))*;
  traces prs <$u,_,_>*;
}
spec $User {
  objects $u;
  sort Srv = all except { $u };
  sort Ext = all except { $u, $b };
  alphabet call $u -> Srv : $PUT(data), $DONE;
  traces prs (<$u,$b,$PUT(_)> bind y in Ext . (<$u,y,$DONE>))*;
}
spec $User2 {
  objects $u;
  sort Srv = all except { $u };
  sort Ext = all except { $u, $b };
  alphabet call $u -> Srv : $PUT(data), $DONE, $ACK;
  traces prs (<$u,$b,$PUT(_)> bind y in Ext . (<$u,y,$DONE>) <$u,$b,$ACK>)*;
}
|};
    trace =
      ( "  traces prs (bind x in Env . (<x,$b,$PUT(_)> <x,$b,$ACK> <x,$b,$GET>))*;\n",
        "  traces prs (bind x in Env . (<x,$b,$ACK> <x,$b,$GET> <x,$b,$PUT(_)>))*;\n"
      );
    vocab = ("SYNC", "FLUSH");
    queries =
      [ "refine PutAck Put"; "refine PutAckSync PutAck"; "refine PutAckSync Put";
        "refine PutEarly Put"; "refine Put PutAck"; "refine PutAcc PutAck";
        "refine User2 User"; "refine User User2"; "equal PutAck PutEarly";
        "equal Put Put"; "compose User PutAcc"; "compose User2 PutAck";
        "deadlock User PutAcc"; "deadlock User2 PutAcc";
        "refine User2||PutAck User||PutAck" ];
  }

let sz =
  {
    names =
      [ "n"; "s"; "SEND"; "DELIV"; "LOSS"; "RETRY"; "RESEND"; "Ideal";
        "Partial"; "Real"; "Retry"; "Sender" ];
    text =
      {|spec $Ideal {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV;
  traces forall x in Env . prs (<x,$n,$SEND(_)> <x,$n,$DELIV>)*;
}
spec $Partial {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV;
$TRACE}
spec $Real {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV, $LOSS;
  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$DELIV> | <x,$n,$LOSS>))*;
}
spec $Retry {
  objects $n;
  sort Env = all except { $n };
  alphabet call Env -> $n : $SEND(data), $DELIV, $LOSS, $VOCAB;
  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$LOSS> <x,$n,$VOCAB>)* <x,$n,$DELIV>)*;
}
spec $Sender {
  objects $s;
  sort Net = all except { $s };
  alphabet call $s -> Net : $SEND(data);
  traces prs (<$s,$n,$SEND(_)>)*;
}
|};
    trace =
      ( "  traces forall x in Env . prs (<x,$n,$SEND(_)> (<x,$n,$DELIV> | eps))*;\n",
        "  traces forall x in Env . prs (<x,$n,$SEND(_)> <x,$n,$DELIV>)*;\n" );
    vocab = ("RETRY", "RESEND");
    queries =
      [ "refine Real Partial"; "refine Ideal Partial"; "refine Partial Ideal";
        "refine Real Ideal"; "refine Retry Ideal"; "refine Retry Partial";
        "refine Retry Real"; "refine Ideal Real"; "equal Partial Ideal";
        "equal Ideal Ideal"; "compose Sender Ideal"; "compose Sender Real";
        "deadlock Sender Ideal"; "refine Sender||Retry Sender||Ideal" ];
  }

(* Family [idx] of a template in edit state (trace, vocab): the spec
   text and its manifest, with seeded family-unique names. *)
let family rng tpl idx ~trace ~vocab =
  let tag () =
    String.init 2 (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))
  in
  let names = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let fresh =
        if Char.uppercase_ascii n.[0] = n.[0] && String.uppercase_ascii n <> n
        then Printf.sprintf "%s%s%d" n (tag ()) idx (* a spec *)
        else if String.uppercase_ascii n = n then
          n ^ String.uppercase_ascii (tag ()) (* a method *)
        else Printf.sprintf "%s%s%d" n (tag ()) idx (* an object *)
      in
      Hashtbl.replace names n fresh)
    tpl.names;
  let pick (a, b) bit = if bit then b else a in
  let subst text =
    let buf = Buffer.create (String.length text) in
    Buffer.add_substitute buf
      (function
        | "TRACE" -> pick tpl.trace trace
        | "VOCAB" -> "$" ^ pick tpl.vocab vocab
        | n -> Hashtbl.find names n)
      text;
    Buffer.contents buf
  in
  (* [$TRACE] and [$VOCAB] expand to text with placeholders of their own *)
  let spec_text = subst (subst tpl.text) in
  let rename_token tok =
    String.concat "||"
      (List.map (Hashtbl.find names) (String.split_on_char '|' tok
                                      |> List.filter (( <> ) "")))
  in
  let query q =
    match String.split_on_char ' ' q with
    | kind :: toks -> String.concat " " (kind :: List.map rename_token toks)
    | [] -> q
  in
  (spec_text, String.concat "\n" (List.map query tpl.queries))

let template_corpus ~extra_objects ~seed =
  let rng = Random.State.make [| seed |] in
  List.concat_map
    (fun (i, tpl) ->
      List.concat_map
        (fun (trace, vocab) ->
          let text, queries = family rng tpl i ~trace ~vocab in
          let load _ =
            Manifest.specs_of_source ~extra_objects ~file:"family.oun" text
          in
          match
            Manifest.requests_of_string_typed ~default_depth:6 ~load
              ("use family.oun\n" ^ queries)
          with
          | Ok rs -> rs
          | Error e ->
              Alcotest.failf "family %d: %s" i (Manifest.input_error_detail e))
        [ (false, false); (false, true); (true, false); (true, true) ])
    [ (0, boiten); (1, sz); (2, boiten); (3, sz) ]

let manifest_requests ~extra_objects name =
  match
    Manifest.requests_of_file_typed ~default_depth:6 ~extra_objects
      (Util.spec_file name)
  with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "%s: %s" name (Manifest.input_error_detail e)

(* The fence corpus: both shipped manifests and the two templates in
   all four edit states, in universes with [extra_objects] fresh
   objects (default 2, the CLI's). *)
let fence_requests ?(extra_objects = 2) () =
  manifest_requests ~extra_objects "batch.manifest"
  @ manifest_requests ~extra_objects "fleet.manifest"
  @ template_corpus ~extra_objects ~seed:7

(* One context per distinct universe, made on its first request. *)
let ctx_per_universe () =
  let ctxs = Hashtbl.create 16 in
  fun (r : Engine.request) ->
    let key = Job.universe_digest r.Engine.universe in
    match Hashtbl.find_opt ctxs key with
    | Some c -> c
    | None ->
        let c = Tset.ctx r.Engine.universe in
        Hashtbl.add ctxs key c;
        c

(* Every ordered refine and equal pair of the ATM viewpoints, in the
   universe of the whole file. *)
let atm_requests ~extra_objects =
  let text =
    In_channel.with_open_bin (Util.spec_file "atm.oun") In_channel.input_all
  in
  match Manifest.specs_of_source ~extra_objects ~file:"atm.oun" text with
  | Error e -> Alcotest.failf "atm.oun: %s" (Manifest.input_error_detail e)
  | Ok (specs, universe) ->
      List.concat_map
        (fun a ->
          List.concat_map
            (fun b ->
              if a == b then []
              else
                List.map
                  (Engine.request ~depth:6 ~universe)
                  [
                    Job.refine ~refined:a ~abstract:b;
                    Job.equal ~left:a ~right:b;
                  ])
            specs)
        specs

(* A seeded posl.gen corpus: 20 generated specs, each with a generated
   refinement, asked both ways and for equality.  Generated once, so
   every universe size asks about the same spec values. *)
let generated =
  lazy
    (G.generate ~rand:(Random.State.make [| 7 |]) ~n:20
       (let open G in
        let* g = Gen.spec Util.sc [ Oid.v "k0" ] in
        let* g' = Gen.refinement_of Util.sc g in
        pure (g', g)))

let generated_requests ~extra_objects =
  List.concat_map
    (fun (g', g) ->
      List.map
        (Engine.of_specs ~depth:6 ~extra_objects)
        [
          Job.refine ~refined:g' ~abstract:g;
          Job.refine ~refined:g ~abstract:g';
          Job.equal ~left:g' ~right:g;
        ])
    (Lazy.force generated)

(* The adequacy differential's answers with [extra_objects] fresh
   objects: the fence corpus, the ATM pairs and the generated corpus,
   on one context per universe.  Computed once per size. *)
let adequacy_answers =
  let memo = Hashtbl.create 3 in
  fun extra_objects ->
    match Hashtbl.find_opt memo extra_objects with
    | Some answers -> answers
    | None ->
        let ctx = ctx_per_universe () in
        let answers =
          List.map
            (fun (r : Engine.request) ->
              ( r.Engine.label,
                Job.run (ctx r) ~depth:r.Engine.depth r.Engine.query ))
            (fence_requests ~extra_objects ()
            @ atm_requests ~extra_objects
            @ generated_requests ~extra_objects)
        in
        Hashtbl.add memo extra_objects answers;
        answers

(* Universe adequacy: the default of 2 fresh environment objects
   decides every query of the differential as [more] do.  Status and
   confidence must agree query by query; evidence may not, since a
   witness can name a different fresh object. *)
let test_universe_adequate more () =
  let two = adequacy_answers 2 and other = adequacy_answers more in
  Util.check_int "same queries" (List.length two) (List.length other);
  List.iter2
    (fun (label, a) (_, b) ->
      if a.V.status <> b.V.status || a.V.confidence <> b.V.confidence then
        Alcotest.failf "%s: %s with 2 extra objects, %s with %d" label
          (V.to_string a) (V.to_string b) more)
    two other

(* Answer every query on one context per universe and on a fresh
   context: a context's memo tables (compiled automata, successor rows,
   forall bodies, hidden events of composites) must never change an
   answer.  Refuted verdicts are certified either way; this is also the
   check for holds verdicts over [Product] monitors, which certification
   cannot make. *)
let test_shared_ctx_equals_fresh () =
  let shared = ctx_per_universe () in
  let requests = fence_requests () in
  let composites = ref 0 in
  List.iter
    (fun (r : Engine.request) ->
      if
        List.exists
          (fun s -> Spec.parts s <> None)
          (Job.specs r.Engine.query)
        || Job.kind r.Engine.query = "deadlock"
      then incr composites;
      let run ctx = Job.run ctx ~depth:r.Engine.depth r.Engine.query in
      let a = run (shared r) and b = run (Tset.ctx r.Engine.universe) in
      if not (V.equal a b) then
        Alcotest.failf "%s: shared %s, fresh %s" r.Engine.label
          (V.to_string a) (V.to_string b))
    requests;
  Util.check_bool "composite and deadlock queries exercised" true
    (!composites >= 20)

(* --- session keys ----------------------------------------------------- *)

(* A session keys a request from pieces it memoises (each spec value's
   serialization, each universe's); the key must be byte for byte the
   one [Digest] computes afresh, on a first ask and on a repeat.  The
   planner's premises are keyed through the same session along the
   way. *)
let test_session_keys_equal_fresh () =
  let session = Engine.session () and counters = Counters.create () in
  let show = Option.value ~default:"none" in
  let ask_twice (r : Engine.request) =
    let fresh =
      Dig.query ~universe:r.Engine.universe ~depth:r.Engine.depth
        r.Engine.query
    in
    for ask = 1 to 2 do
      let got = (Engine.answer session counters r).Engine.digest in
      if got <> fresh then
        Alcotest.failf "%s, ask %d: session key %s, fresh key %s"
          r.Engine.label ask (show got) (show fresh)
    done;
    fresh
  in
  List.iter (fun r -> ignore (ask_twice r)) (fence_requests ());
  (* Read2's body is a [Forall_obj]: its serialization expands over the
     universe's objects, so the one spec value keys apart under two
     universes, each time as a fresh key does. *)
  let read2_under extra_objects =
    ask_twice
      (Engine.of_specs ~depth:3 ~extra_objects
         (Job.refine ~refined:Ex.read2 ~abstract:Ex.read))
  in
  let k2 = read2_under 2 and k3 = read2_under 3 in
  Util.check_bool "Read2 has a key under both universes" true
    (Option.is_some k2 && Option.is_some k3);
  Util.check_bool "and they differ" true (k2 <> k3);
  let opaque = req (Job.equal ~left:pointwise_spec ~right:pointwise_spec) in
  for _ = 1 to 2 do
    let r = Engine.answer session counters opaque in
    Alcotest.(check (option string)) "a pointwise body has no key" None
      r.Engine.digest;
    Util.check_bool "and is never cached" false r.Engine.cached
  done

(* One session answering a file that is parsed again and again, as the
   watcher's session is: each cycle parses paper.oun afresh, clears the
   verdict cache (so every pair is checked again, as pbdrive's watch
   loop has it) and answers the 56 ordered refine pairs of the new parse
   through [Engine.answer], which keys every spec value in the session.
   The previous parse's specs become unreachable, and their keys, trace
   sets and nodes must go with them: after a full major collection the
   live heap at the last cycle stays within 1.5x its value at cycle 20.
   A memo holding its spec values strongly keeps every parse alive.
   Each reading follows a full major collection, and no lookup runs
   during one: it frees what lookups made during marking would have
   kept alive, so this soak cannot see a memo whose lookups revive
   superseded parses.  The soaks in [soak_main], which force no
   collection, can. *)
let test_soak_key_memo () =
  let parse = Util.reparse "paper.oun" in
  let session = Engine.session () and counters = Counters.create () in
  let cycle () =
    let specs = parse () in
    let universe = Spec.adequate_universe specs in
    Cache.clear (Engine.session_cache session);
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a != b then
              ignore
                (Engine.answer session counters
                   (Engine.request ~universe (Job.refine ~refined:a ~abstract:b))))
          specs)
      specs
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let cycles = 100 and early = 20 in
  let at_early = ref 0 in
  for i = 1 to cycles do
    cycle ();
    if i = early then at_early := live_words ()
  done;
  let last = live_words () in
  (* read after the last collection, so the session is live through it *)
  Util.check_int "the last cycle's verdicts are cached" 56
    (Cache.size (Engine.session_cache session));
  if 2 * last > 3 * !at_early then
    Alcotest.failf "live heap grew from %d words at cycle %d to %d at cycle %d"
      !at_early early last cycles

(* Serve's shape: every submission of an [A||B] query resolves its
   composition tokens afresh ([Manifest.resolve_name] builds a new
   [Compose.compose] value each time), so each answer keys a new
   composite under the same name, and every submission after the first
   is a cache hit.  No collection is forced: the major GC runs as
   allocation paces it, between lookups, as in a server.  The major
   heap after submission 12,000 stays within 1.5x its size at
   submission 3,000, by when the GC has sized the heap for this loop.
   A memo whose lookups read the superseded composites' entries keeps
   them alive for every cycle those lookups fall in, and the heap grows
   with the submissions. *)
let test_soak_fresh_composites () =
  let specs = Util.reparse "fleet.oun" () in
  let universe = Spec.adequate_universe specs in
  let session = Engine.session () and counters = Counters.create () in
  let resolve token =
    match Manifest.resolve_name specs ~file:"fleet.oun" token with
    | Ok s -> s
    | Error m -> Alcotest.failf "%s: %s" token m
  in
  let submit () =
    let q =
      Job.refine ~refined:(resolve "Gauge2||Log")
        ~abstract:(resolve "Gauge||Log")
    in
    (Engine.answer session counters (Engine.request ~universe q)).Engine.cached
  in
  ignore (submit ());
  (* once, before the readings: what ran before is not this soak's *)
  Gc.full_major ();
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let early = 3_000 and last = 12_000 in
  let at_early = ref 0 in
  for i = 1 to last do
    if not (submit ()) then Alcotest.fail "a repeated submission missed";
    if i = early then at_early := heap ()
  done;
  let at_last = heap () in
  if 2 * at_last > 3 * !at_early then
    Alcotest.failf "major heap grew from %d words at submission %d to %d at %d"
      !at_early early at_last last

(* --- randomized properties ------------------------------------------ *)

let sc = Gen.default_scenario
let k0 = Oid.v "k0"

(* Pairs of specs under one name, so equal keys are possible at all:
   independent interface specs, and specs sharing an alphabet whose
   trace sets lean towards count clauses. *)
let same_name_pair =
  let open G in
  let shared_alpha =
    let* alpha = Gen.alpha_for sc [ k0 ] in
    let events = Eventset.sample sc.Gen.universe alpha in
    let tset =
      frequency
        [
          (1, Gen.tset_within sc events);
          (1, Gen.counting_within sc events >|= Tset.counting);
        ]
    in
    let* ta = tset in
    let* tb = tset in
    let spec t = Spec.v ~name:"S" ~objs:[ k0 ] ~alpha t in
    pure (spec ta, spec tb)
  in
  let* a, b =
    oneof [ pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0); shared_alpha ]
  in
  pure (Spec.with_name "S" a, Spec.with_name "S" b)

let qsuite =
  [
    (* (a) cached verdict ≡ freshly computed verdict on random pairs *)
    Util.qtest ~count:25 "engine: cached ≡ fresh on random spec pairs"
      (G.pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
      (fun (a, b) ->
        let q = Job.Refine { refined = a; abstract = b } in
        let r = Engine.of_specs ~depth:3 q in
        let session = Engine.session () in
        let first, _ = Engine.run_jobs ~domains:1 session [ r ] in
        let second, stats = Engine.run_jobs ~domains:1 session [ r ] in
        let fresh =
          Job.run (Tset.ctx r.Engine.universe) ~depth:3 q
        in
        stats.Engine.cache_hits = 1
        && verdicts_equal (verdicts first) (verdicts second)
        && verdicts_equal (verdicts second) [ fresh ]);
    (* (c) digest collisions do not conflate distinct queries *)
    Util.qtest ~count:200 "digest: equal keys ⟹ semantically equal specs"
      same_name_pair
      (fun (a, b) ->
        let ka = Dig.spec_key ~universe:sc.Gen.universe a
        and kb = Dig.spec_key ~universe:sc.Gen.universe b in
        match (ka, kb) with
        | Some ka, Some kb when ka = kb ->
            (* identical content addresses must mean identical
               specifications *)
            Theory.is_pass
                 (Theory.spec_equal
                    (Tset.ctx sc.Gen.universe)
                    ~depth:3 a b)
        | _ -> true);
    Util.qtest ~count:60 "digest: distinct bodies ⟹ distinct digests"
      (G.pair (Gen.interface_spec sc k0) (Gen.interface_spec sc k0))
      (fun (a, b) ->
        let q1 = Job.Refine { refined = a; abstract = b }
        and q2 = Job.Refine { refined = b; abstract = a } in
        let d1 = Dig.query ~universe:sc.Gen.universe ~depth:3 q1
        and d2 = Dig.query ~universe:sc.Gen.universe ~depth:3 q2 in
        (* asymmetric queries over an unequal pair must key apart *)
        match (d1, d2) with
        | Some d1, Some d2 ->
            d1 = d2
            = (Dig.spec_key ~universe:sc.Gen.universe a
               = Dig.spec_key ~universe:sc.Gen.universe b)
        | _ -> true);
  ]

(* Run by [soak_main], in a process of their own: see there. *)
let soaks =
  [
    Alcotest.test_case "soak: fresh composites die between submissions"
      `Slow test_soak_fresh_composites;
  ]

let suite =
  [
    Alcotest.test_case "cache hit on repeated query" `Quick
      test_cache_hit_on_repeat;
    Alcotest.test_case "cached ≡ fresh on the paper batch" `Slow
      test_cached_equals_fresh_paper;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "deterministic across domain counts" `Slow
      test_deterministic_across_domains;
    Alcotest.test_case "DFA compiles don't scale with domains" `Slow
      test_dfa_compiles_do_not_scale_with_domains;
    Alcotest.test_case "DFA cache stays warm across batches" `Quick
      test_dfa_cache_warm_across_batches;
    Alcotest.test_case "DFA counts equal the session's cache view" `Quick
      test_dfa_counts_match_session_view;
    Alcotest.test_case "structurally equal universes share one context"
      `Quick test_equal_universes_share_a_context;
    Alcotest.test_case "run_batch ≡ run_jobs on a fresh session" `Quick
      test_run_batch_is_a_fresh_session;
    Alcotest.test_case "opaque trace sets are uncacheable" `Quick
      test_opaque_uncacheable;
    Alcotest.test_case "digest separates the paper specs" `Quick
      test_digest_separates_paper_specs;
    Alcotest.test_case "digest separates kinds and depths" `Quick
      test_digest_separates_kinds_and_depth;
    Alcotest.test_case "digest: count clauses over different methods key apart"
      `Quick test_count_classes_key_apart;
    Alcotest.test_case "store keys are pinned" `Quick test_store_keys_pinned;
    Alcotest.test_case "fence corpus: 2 extra objects decide as 3 do" `Slow
      (test_universe_adequate 3);
    Alcotest.test_case "fence corpus: 2 extra objects decide as 4 do" `Slow
      (test_universe_adequate 4);
    Alcotest.test_case "one shared context ≡ fresh contexts" `Slow
      test_shared_ctx_equals_fresh;
    Alcotest.test_case "session keys ≡ fresh keys" `Slow
      test_session_keys_equal_fresh;
    Alcotest.test_case "soak: the key memo pins no dead parse" `Slow
      test_soak_key_memo;
    Alcotest.test_case "batch jobs nest under the batch span on every domain"
      `Quick test_batch_span_tree;
  ]
  @ qsuite
