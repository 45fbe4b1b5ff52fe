(* The verification service (posl.serve): frame codec edge cases, wire
   protocol round trips, and a live server exercised over a Unix socket
   — protocol round trip, verdicts equal to direct engine runs from
   concurrent clients, warm-cache hits on repeated digests, queue-full
   rejection, malformed/oversized frames, deadline expiry, graceful
   drain on the shutdown op, and a small in-process loadgen campaign. *)

module Frame = Posl_serve.Frame
module Wire = Posl_serve.Wire
module Sched = Posl_serve.Sched
module Serve = Posl_serve.Serve
module Client = Posl_serve.Client
module Loadgen = Posl_serve.Loadgen
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Lang = Posl_lang.Lang
module Spec = Posl_core.Spec
module V = Posl_verdict.Verdict
module Json = Posl_verdict.Verdict.Json
module Telemetry = Posl_telemetry.Telemetry

(* ---------------- frame codec ---------------- *)

(* Run the codec through a real pipe: writer channel on one end, reader
   on the other. *)
let with_pipe f =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () -> f ic oc)

let read_ok ic =
  match Frame.read ic with
  | Ok p -> p
  | Error e -> Alcotest.failf "frame read: %a" Frame.pp_error e

let test_frame_round_trip () =
  with_pipe (fun ic oc ->
      (* write-then-read per payload: each frame must fit the pipe
         buffer (64 KiB) or the single-threaded writer would block *)
      let payloads = [ ""; "x"; {|{"op":"ping"}|}; String.make 30_000 'z' ] in
      List.iter
        (fun p ->
          Frame.write oc p;
          Alcotest.(check string) "payload" p (read_ok ic))
        payloads)

let frame_error s ~max_bytes =
  with_pipe (fun ic oc ->
      output_string oc s;
      close_out oc;
      Frame.read ~max_bytes ic)

let test_frame_errors () =
  (match frame_error "" ~max_bytes:1024 with
  | Error Frame.Eof -> ()
  | r -> Alcotest.failf "empty stream: %s" (match r with Ok _ -> "ok" | Error e -> Format.asprintf "%a" Frame.pp_error e));
  (match frame_error "bogus\n" ~max_bytes:1024 with
  | Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "non-digit prefix should be malformed");
  (match frame_error "5 ab" ~max_bytes:1024 with
  | Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated payload should be malformed");
  (match frame_error "2 abX" ~max_bytes:1024 with
  | Error (Frame.Malformed _) -> ()
  | _ -> Alcotest.fail "bad terminator should be malformed");
  (match frame_error "99999 x" ~max_bytes:64 with
  | Error (Frame.Oversized 99999) -> ()
  | _ -> Alcotest.fail "oversized declaration should be refused");
  match frame_error (Frame.to_string "hello") ~max_bytes:5 with
  | Ok "hello" -> ()
  | _ -> Alcotest.fail "frame exactly at the limit should pass"

(* ---------------- wire protocol ---------------- *)

let round_trip req =
  match Wire.parse_request (Json.to_string (Wire.request_json req)) with
  | Ok r -> r
  | Error e -> Alcotest.failf "wire round trip: %s" e

let test_wire_round_trip () =
  List.iter
    (fun r ->
      if round_trip r <> r then Alcotest.fail "request did not round-trip")
    [
      Wire.Ping;
      Wire.Stats;
      Wire.Metrics;
      Wire.Shutdown;
      Wire.Submit
        (Wire.submission ~depth:4 ~deadline_ms:250
           ~queries:[ { Wire.kind = "refine"; names = [ "A"; "B" ] } ]
           (`Spec_text "spec A {}"));
      Wire.Submit (Wire.submission (`Manifest "queries.manifest"));
    ]

let parse_fails payload =
  match Wire.parse_request payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "should not parse: %s" payload

let test_wire_rejects () =
  parse_fails "not json at all";
  parse_fails {|{"no_op":true}|};
  parse_fails {|{"op":"frobnicate"}|};
  (* two sources *)
  parse_fails
    {|{"op":"submit","file":"a.oun","spec_text":"spec A {}","queries":[{"kind":"refine","specs":["A","B"]}]}|};
  (* no source *)
  parse_fails {|{"op":"submit","queries":[{"kind":"refine","specs":["A","B"]}]}|};
  (* named-source submit without queries *)
  parse_fails {|{"op":"submit","file":"a.oun"}|};
  (* manifest with embedded queries array *)
  parse_fails
    {|{"op":"submit","manifest":"m","queries":[{"kind":"refine","specs":["A","B"]}]}|}

(* ---------------- scheduler ---------------- *)

let test_sched_runs_and_drains () =
  let hits = Atomic.make 0 in
  let q =
    Sched.create ~workers:2 ~max_queue:64 ~run:(fun ~wait_ns:_ n ->
        ignore (Atomic.fetch_and_add hits n))
  in
  List.iter
    (fun n -> Alcotest.(check bool) "accepted" true (Sched.submit q n = Sched.Accepted))
    [ 1; 2; 3; 4; 5 ];
  Sched.drain q;
  Util.check_int "all items ran" 15 (Atomic.get hits);
  Alcotest.(check bool) "stopped after drain" true
    (Sched.submit q 6 = Sched.Stopped)

let test_sched_overload_is_atomic () =
  (* no workers: whatever is admitted stays queued, so capacity
     accounting is exact *)
  let q = Sched.create ~workers:0 ~max_queue:3 ~run:(fun ~wait_ns:_ _ -> ()) in
  Alcotest.(check bool) "batch fits" true
    (Sched.submit_all q [ 1; 2 ] = Sched.Accepted);
  Alcotest.(check bool) "overflowing batch refused whole" true
    (Sched.submit_all q [ 3; 4 ] = Sched.Overloaded);
  Util.check_int "refused batch left no residue" 2 (Sched.depth q);
  Alcotest.(check bool) "exact fit accepted" true
    (Sched.submit q 3 = Sched.Accepted);
  Sched.drain q

(* ---------------- live server harness ---------------- *)

let spec_text =
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

// A composable pair over disjoint objects (their sorts exclude both,
// so neither alphabet reaches inside the composition): CompL refines
// CompL2, which lifts to CompL||CompR refining CompL2||CompR.
spec CompL {
  objects p;
  sort F = all except { p, q };
  alphabet call F -> p : M, N;
  traces prs (bind x in F . (<x,p,M> <x,p,N>))*;
}

spec CompL2 {
  objects p;
  sort F = all except { p, q };
  alphabet call F -> p : M, N;
  traces all;
}

spec CompR {
  objects q;
  sort F = all except { p, q };
  alphabet call F -> q : K;
  traces all;
}
|}

let depth = 4

(* What the engine answers directly, bypassing the server. *)
let direct_verdict ?plan kind names =
  let specs =
    match Lang.specs_of_string spec_text with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec_text: %a" Lang.pp_error e
  in
  let universe = Spec.adequate_universe ~extra_objects:2 specs in
  let resolved =
    List.map
      (fun n ->
        match Posl_engine.Manifest.resolve_name specs ~file:"spec_text" n with
        | Ok s -> s
        | Error e -> Alcotest.failf "resolve %s: %s" n e)
      names
  in
  let query = Result.get_ok (Posl_engine.Manifest.query ~kind resolved) in
  let results, _ =
    Engine.run_batch ~domains:1 ?plan
      [ Engine.request ~depth ~universe query ]
  in
  (List.hd results).Engine.verdict

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "posl-serve-%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(workers = 2) ?(max_queue = 64) ?deadline_ms
    ?(max_frame = Frame.default_max_bytes) f =
  let path = fresh_sock () in
  let addr : Wire.addr = `Unix path in
  let cfg =
    Serve.config ~workers ~max_queue ?deadline_ms ~max_frame
      ~handle_signals:false addr
  in
  let ready = Mutex.create () and readyc = Condition.create () in
  let up = ref false in
  let server =
    Thread.create
      (fun () ->
        Serve.run
          ~on_ready:(fun _ ->
            Mutex.lock ready;
            up := true;
            Condition.signal readyc;
            Mutex.unlock ready)
          cfg)
      ()
  in
  Mutex.lock ready;
  while not !up do
    Condition.wait readyc ready
  done;
  Mutex.unlock ready;
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: tests that already sent shutdown just fail to
         connect here *)
      (try
         let c = Client.connect addr in
         ignore (Client.call c (Wire.request_json Wire.Shutdown));
         Client.close c
       with _ -> ());
      Thread.join server)
    (fun () -> f addr)

let field name = function
  | Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

let get_field name doc =
  match field name doc with
  | Some v -> v
  | None -> Alcotest.failf "response lacks field %S: %s" name (Json.to_string doc)

let call_ok conn doc =
  match Client.call conn doc with
  | Ok r -> r
  | Error e -> Alcotest.failf "call: %s" e

let error_code doc =
  match field "error" doc with
  | Some (Json.Obj ef) -> (
      match List.assoc_opt "code" ef with
      | Some (Json.Str c) -> Some c
      | _ -> None)
  | _ -> None

let submit ?deadline_ms queries =
  Wire.request_json
    (Wire.Submit
       (Wire.submission ~depth ?deadline_ms
          ~queries:
            (List.map (fun (kind, names) -> { Wire.kind; names }) queries)
          (`Spec_text spec_text)))

let results_of doc =
  match get_field "results" doc with
  | Json.List rs -> rs
  | _ -> Alcotest.fail "results is not a list"

let verdict_of_result r =
  match V.of_json (get_field "verdict" r) with
  | Ok v -> v
  | Error e -> Alcotest.failf "verdict does not parse: %s" e

(* ---------------- live server tests ---------------- *)

let test_protocol_round_trip () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let pong = call_ok c (Wire.request_json Wire.Ping) in
      Alcotest.(check bool) "pong ok" true
        (field "ok" pong = Some (Json.Bool true));
      let stats = call_ok c (Wire.request_json Wire.Stats) in
      (match get_field "queue_depth" stats with
      | Json.Int _ -> ()
      | _ -> Alcotest.fail "queue_depth not an int");
      (match get_field "engine" stats with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "engine counters missing");
      let metrics = call_ok c (Wire.request_json Wire.Metrics) in
      match get_field "metrics" metrics with
      | Json.Str text ->
          Alcotest.(check bool) "registry exposed" true
            (Util.contains_substring ~needle:"posl_serve_requests_total" text)
      | _ -> Alcotest.fail "metrics is not a string")

let test_submit_equals_direct () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let doc =
        call_ok c
          (submit
             [
               ("refine", [ "A"; "B" ]);
               ("refine", [ "B"; "A" ]);
               ("equal", [ "A"; "Rev" ]);
             ])
      in
      Alcotest.(check bool) "submit ok" true
        (field "ok" doc = Some (Json.Bool true));
      let rs = results_of doc in
      Util.check_int "three results" 3 (List.length rs);
      List.iter2
        (fun r (kind, names) ->
          let direct = direct_verdict kind names in
          Alcotest.(check bool)
            (Printf.sprintf "%s(%s) equals direct run" kind
               (String.concat "," names))
            true
            (V.equal direct (verdict_of_result r)))
        rs
        [ ("refine", [ "A"; "B" ]); ("refine", [ "B"; "A" ]); ("equal", [ "A"; "Rev" ]) ];
      (* refine B A does not hold, and the response says so *)
      Alcotest.(check bool) "failed count" true
        (get_field "failed" doc = Json.Int 2))

(* Composition tokens in wire-named queries resolve exactly like
   manifest entries: the operands carry parts provenance, so the
   server's planner derives the composite verdict — which must agree
   with direct product checking ([Plan.Off]) modulo provenance. *)
let test_submit_composite_tokens () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let names = [ "CompL||CompR"; "CompL2||CompR" ] in
      let doc = call_ok c (submit [ ("refine", names) ]) in
      Alcotest.(check bool) "submit ok" true
        (field "ok" doc = Some (Json.Bool true));
      let served = verdict_of_result (List.hd (results_of doc)) in
      Alcotest.(check bool) "holds" true (V.is_holds served);
      (match served.V.provenance.V.procedure with
      | Some (V.Derived { rule; _ }) ->
          Alcotest.(check string) "planner rule" "theorem7" rule
      | _ -> Alcotest.fail "expected Derived provenance on the composite");
      Alcotest.(check bool) "equals planner-on direct run" true
        (V.equal (direct_verdict "refine" names) served);
      Alcotest.(check bool) "agrees with plan-off direct run" true
        (V.equal_modulo_provenance
           (direct_verdict ~plan:Posl_engine.Plan.Off "refine" names)
           served);
      (* an unknown part in a token is a typed input error, not a crash *)
      let bad = call_ok c (submit [ ("refine", [ "CompL||Nope"; "CompL2" ]) ]) in
      Alcotest.(check bool) "unknown part is an input error" true
        (error_code bad = Some "input"))

let test_concurrent_clients_agree () =
  with_server ~workers:3 (fun addr ->
      let queries =
        [ ("refine", [ "A"; "B" ]); ("refine", [ "B"; "A" ]);
          ("equal", [ "A"; "A" ]) ]
      in
      let directs =
        List.map (fun (k, ns) -> direct_verdict k ns) queries
      in
      let mismatches = Atomic.make 0 in
      let client () =
        let c = Client.connect addr in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        for _ = 1 to 3 do
          let doc = call_ok c (submit queries) in
          List.iter2
            (fun r direct ->
              if not (V.equal direct (verdict_of_result r)) then
                Atomic.incr mismatches)
            (results_of doc) directs
        done
      in
      let threads = List.init 4 (fun _ -> Thread.create client ()) in
      List.iter Thread.join threads;
      Util.check_int "every concurrent verdict equals the direct run" 0
        (Atomic.get mismatches))

let test_repeat_hits_warm_cache () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let one () =
        match results_of (call_ok c (submit [ ("refine", [ "A"; "B" ]) ])) with
        | [ r ] -> r
        | _ -> Alcotest.fail "one result expected"
      in
      let first = one () and second = one () in
      Alcotest.(check bool) "first submission computes" true
        (get_field "cached" first = Json.Bool false);
      Alcotest.(check bool) "repeated digest answered from warm cache" true
        (get_field "cached" second = Json.Bool true))

(* The server counts DFA work like a batch does: compiles are counted
   where an automaton is resolved, so a cold submission over prs
   clauses shows in the stats op's engine counters and in the
   registry's exposition. *)
let test_stats_count_dfa_compiles () =
  let registry_value text name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when n = name -> int_of_string_opt v
           | _ -> None)
    |> Option.value ~default:0
  in
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let compiles_total () =
        match get_field "metrics" (call_ok c (Wire.request_json Wire.Metrics)) with
        | Json.Str text -> registry_value text "posl_engine_dfa_compiles_total"
        | _ -> Alcotest.fail "metrics is not a string"
      in
      let before = compiles_total () in
      ignore (call_ok c (submit [ ("equal", [ "A"; "Rev" ]) ]));
      let engine = get_field "engine" (call_ok c (Wire.request_json Wire.Stats)) in
      (match get_field "dfa_compiles" engine with
      | Json.Int n ->
          Alcotest.(check bool) "stats: engine.dfa_compiles > 0" true (n > 0)
      | _ -> Alcotest.fail "engine.dfa_compiles is not an int");
      Alcotest.(check bool) "metrics: posl_engine_dfa_compiles_total grew" true
        (compiles_total () > before))

(* A [file] submission reads its file on every request: once an edit
   renames a spec, the old name is an input error, not a verdict
   remembered from the first parse. *)
let test_file_submission_sees_edits () =
  let dir = Filename.temp_file "posl-serve-file" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "p.oun" in
  let write text =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  write spec_text;
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let ask () =
        call_ok c
          (Wire.request_json
             (Wire.Submit
                (Wire.submission ~depth
                   ~queries:[ { Wire.kind = "refine"; names = [ "A"; "B" ] } ]
                   (`File path))))
      in
      (match results_of (ask ()) with
      | [ r ] ->
          Alcotest.(check bool) "A refines B" true
            (V.is_holds (verdict_of_result r))
      | _ -> Alcotest.fail "one result expected");
      let needle = "spec A {" in
      let rec find i =
        if String.sub spec_text i (String.length needle) = needle then i
        else find (i + 1)
      in
      let i = find 0 and n = String.length needle in
      write
        (String.sub spec_text 0 i ^ "spec ATwo {"
        ^ String.sub spec_text (i + n) (String.length spec_text - i - n));
      let after = ask () in
      Alcotest.(check (option string)) "renamed spec is an input error"
        (Some "input") (error_code after);
      Alcotest.(check bool) "the error names the missing spec" true
        (Util.contains_substring ~needle:"no spec named A in"
           (Json.to_string after)))

(* A [manifest] submission loads its spec files through the server's
   parse memo, as [file] and [manifest_text] submissions do: asked again
   at another depth, the manifest's relative [use] target is the parse
   already in hand, so its trace sets keep their resolved automata and
   the DFA cache is not consulted again. *)
let test_manifest_reuses_parse_memo () =
  let dir = Filename.temp_file "posl-serve-manifest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let spec = Filename.concat dir "paper.oun"
  and manifest = Filename.concat dir "m.manifest" in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ spec; manifest ];
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  write spec
    (In_channel.with_open_bin (Util.spec_file "paper.oun") In_channel.input_all);
  write manifest "use paper.oun\nrefine RW Write\nrefine Read2 Read\n";
  with_server ~workers:1 (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let dfa_hits_after depth =
        let doc =
          call_ok c
            (Wire.request_json
               (Wire.Submit (Wire.submission ~depth (`Manifest manifest))))
        in
        Alcotest.(check int)
          (Printf.sprintf "two results at depth %d" depth)
          2
          (List.length (results_of doc));
        match
          get_field "dfa_cache_hits"
            (get_field "engine" (call_ok c (Wire.request_json Wire.Stats)))
        with
        | Json.Int n -> n
        | _ -> Alcotest.fail "engine.dfa_cache_hits is not an int"
      in
      let first = dfa_hits_after 4 in
      Alcotest.(check int) "the second depth re-resolves no automaton" first
        (dfa_hits_after 5))

let test_queue_full_rejects () =
  with_server ~max_queue:0 (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let doc = call_ok c (submit [ ("refine", [ "A"; "B" ]) ]) in
      Alcotest.(check bool) "refused" true (field "ok" doc = Some (Json.Bool false));
      Alcotest.(check (option string)) "typed overloaded response"
        (Some "overloaded") (error_code doc);
      (* the connection survives the rejection *)
      let pong = call_ok c (Wire.request_json Wire.Ping) in
      Alcotest.(check bool) "still serving" true
        (field "ok" pong = Some (Json.Bool true)))

let test_deadline_expiry () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let doc =
        call_ok c (submit ~deadline_ms:0 [ ("refine", [ "A"; "B" ]) ])
      in
      Alcotest.(check bool) "submission admitted" true
        (field "ok" doc = Some (Json.Bool true));
      Alcotest.(check bool) "expired counted" true
        (get_field "expired" doc = Json.Int 1);
      match results_of doc with
      | [ r ] ->
          Alcotest.(check (option string)) "deadline_exceeded entry"
            (Some "deadline_exceeded") (error_code r)
      | _ -> Alcotest.fail "one result expected")

let unix_path : Wire.addr -> string = function
  | `Unix p -> p
  | `Tcp _ -> Alcotest.fail "unix address expected"

let raw_exchange addr lines =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (unix_path addr));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr (Unix.dup fd) in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      close_in_noerr ic)
    (fun () ->
      output_string oc lines;
      flush oc;
      Frame.read ic)

let test_malformed_and_oversized_frames () =
  with_server ~max_frame:4096 (fun addr ->
      (match raw_exchange addr "bogus\n" with
      | Ok payload ->
          Alcotest.(check (option string)) "malformed frame answered"
            (Some "malformed")
            (match Json.of_string payload with
            | Ok doc -> error_code doc
            | Error _ -> None)
      | Error e -> Alcotest.failf "expected a response: %a" Frame.pp_error e);
      (match raw_exchange addr "100000 " with
      | Ok payload ->
          Alcotest.(check (option string)) "oversized frame answered"
            (Some "oversized")
            (match Json.of_string payload with
            | Ok doc -> error_code doc
            | Error _ -> None)
      | Error e -> Alcotest.failf "expected a response: %a" Frame.pp_error e);
      (* well-framed garbage JSON keeps the connection alive *)
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      ignore (call_ok c (Wire.request_json Wire.Ping)))

let test_shutdown_drains () =
  let sock = ref "" in
  with_server (fun addr ->
      sock := unix_path addr;
      let c = Client.connect addr in
      (* land one real verdict first so the drain has completed work *)
      ignore (call_ok c (submit [ ("refine", [ "A"; "B" ]) ]));
      let bye = call_ok c (Wire.request_json Wire.Shutdown) in
      Alcotest.(check bool) "shutdown acknowledged" true
        (field "ok" bye = Some (Json.Bool true));
      Client.close c);
  (* with_server joined the server thread, so Serve.run returned *)
  Alcotest.(check bool) "socket unlinked after drain" false
    (Sys.file_exists !sock)

let test_loadgen_campaign () =
  with_server ~workers:2 (fun addr ->
      let pool =
        List.map
          (fun q ->
            Wire.submission ~depth
              ~queries:[ { Wire.kind = fst q; names = snd q } ]
              (`Spec_text spec_text))
          [ ("refine", [ "A"; "B" ]); ("refine", [ "B"; "A" ]);
            ("equal", [ "A"; "A" ]) ]
      in
      match
        Loadgen.run addr ~pool
          { Loadgen.requests = 12; clients = 3; repeat = 0.5;
            mode = Loadgen.Closed; seed = 42 }
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Util.check_int "all answered" 12 r.Loadgen.answered;
          Util.check_int "no transport errors" 0 r.Loadgen.errors;
          Alcotest.(check bool) "repeats landed on warm caches" true
            (r.Loadgen.cached > 0);
          Alcotest.(check bool) "throughput measured" true (r.Loadgen.qps > 0.);
          Alcotest.(check bool) "slowest exemplars reported" true
            (r.Loadgen.slowest <> []);
          List.iter
            (fun (tid, ms) ->
              Alcotest.(check bool)
                (tid ^ " is a loadgen trace id") true
                (String.length tid > 5 && String.sub tid 0 5 = "lg42-");
              Alcotest.(check bool) "exemplar latency positive" true (ms > 0.))
            r.Loadgen.slowest)

(* Percentiles are nearest-rank over the answered latencies: with 20
   samples p99 is the slowest one, and the ladder never inverts. *)
let test_loadgen_percentiles () =
  with_server ~workers:1 (fun addr ->
      let pool =
        [
          Wire.submission ~depth
            ~queries:[ { Wire.kind = "refine"; names = [ "A"; "B" ] } ]
            (`Spec_text spec_text);
        ]
      in
      match
        Loadgen.run addr ~pool
          { Loadgen.requests = 20; clients = 1; repeat = 0.;
            mode = Loadgen.Closed; seed = 7 }
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Util.check_int "all answered" 20 r.Loadgen.answered;
          Alcotest.(check (float 0.)) "p99 is the slowest sample"
            r.Loadgen.max_ms r.Loadgen.p99_ms;
          Alcotest.(check bool) "p50 <= p90 <= p99" true
            (r.Loadgen.p50_ms <= r.Loadgen.p90_ms
            && r.Loadgen.p90_ms <= r.Loadgen.p99_ms))

(* One request through a multi-worker server yields one connected span
   tree under its client-supplied trace id: serve.handle on the
   connection thread (child of that connection's serve.accept),
   serve.queue_wait emitted at dequeue, and the worker domain's
   engine.job — all stitched across the thread/domain handoffs by
   parent links, every request-scoped span tagged with the trace id. *)
let test_request_span_tree () =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  let echoed = ref None in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
  @@ fun () ->
  with_server ~workers:2 (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let doc =
        call_ok c
          (Wire.request_json
             (Wire.Submit
                (Wire.submission ~depth ~trace_id:"req-tree-1"
                   ~queries:[ { Wire.kind = "refine"; names = [ "A"; "B" ] } ]
                   (`Spec_text spec_text))))
      in
      Alcotest.(check bool) "submit ok" true
        (field "ok" doc = Some (Json.Bool true));
      echoed :=
        (match field "trace_id" doc with
        | Some (Json.Str t) -> Some t
        | _ -> None));
  (* with_server joined the server (conn threads and worker domains
     included), so every ring is quiescent and safe to read *)
  Alcotest.(check (option string)) "response echoes the client trace id"
    (Some "req-tree-1") !echoed;
  let spans = Telemetry.spans () in
  let tagged =
    List.filter
      (fun (s : Telemetry.span) -> s.trace_id = Some "req-tree-1")
      spans
  in
  let named n =
    match List.filter (fun (s : Telemetry.span) -> s.name = n) tagged with
    | [ s ] -> s
    | l ->
        Alcotest.failf "expected exactly one tagged %s span, got %d" n
          (List.length l)
  in
  let handle = named "serve.handle" in
  let wait = named "serve.queue_wait" in
  let job = named "engine.job" in
  Alcotest.(check (option string)) "handle span knows its op"
    (Some "submit")
    (List.assoc_opt "op" handle.Telemetry.attrs);
  Alcotest.(check (option int)) "queue wait hangs off the handle span"
    (Some handle.Telemetry.id) wait.Telemetry.parent;
  (* the engine job ran on a worker domain; its parent chain must still
     reach the handle span recorded on the connection thread's ring *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Telemetry.span) -> Hashtbl.add by_id s.id s) spans;
  let rec reaches target id =
    id = target
    ||
    match Hashtbl.find_opt by_id id with
    | Some (s : Telemetry.span) -> (
        match s.parent with Some p -> reaches target p | None -> false)
    | None -> false
  in
  (match job.Telemetry.parent with
  | None -> Alcotest.fail "engine.job is an orphan"
  | Some p ->
      Alcotest.(check bool)
        "engine.job's ancestry crosses the domain handoff to serve.handle"
        true
        (reaches handle.Telemetry.id p));
  (* the handle span itself hangs off the connection's accept span *)
  (match handle.Telemetry.parent with
  | None -> Alcotest.fail "serve.handle is an orphan"
  | Some p -> (
      match Hashtbl.find_opt by_id p with
      | Some (s : Telemetry.span) ->
          Alcotest.(check string) "handle parent is the accept span"
            "serve.accept" s.name
      | None -> Alcotest.fail "handle parent id dangles"));
  Alcotest.(check bool) "trace export carries the trace id" true
    (Util.contains_substring ~needle:{|"trace_id":"req-tree-1"|}
       (Telemetry.trace_json ()))

(* A server whose caller leaves span recording off records nothing: no
   span lands in any ring, a submit result carries no span id, and the
   flag is still off once the server has returned. *)
let test_untraced_server_records_nothing () =
  Telemetry.reset ();
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match results_of (call_ok c (submit [ ("refine", [ "A"; "B" ]) ])) with
      | [ r ] ->
          Alcotest.(check bool) "span_id is null" true
            (get_field "span_id" r = Json.Null)
      | _ -> Alcotest.fail "one result expected");
  Alcotest.(check int) "no span recorded" 0 (List.length (Telemetry.spans ()));
  Alcotest.(check bool) "span recording left off" false (Telemetry.enabled ())

let suite =
  [
    Alcotest.test_case "frames round-trip through a pipe" `Quick
      test_frame_round_trip;
    Alcotest.test_case "frame codec rejects malformed input" `Quick
      test_frame_errors;
    Alcotest.test_case "wire requests round-trip" `Quick test_wire_round_trip;
    Alcotest.test_case "wire rejects invalid submissions" `Quick
      test_wire_rejects;
    Alcotest.test_case "scheduler runs and drains" `Quick
      test_sched_runs_and_drains;
    Alcotest.test_case "scheduler admission is all-or-nothing" `Quick
      test_sched_overload_is_atomic;
    Alcotest.test_case "live: ping/stats/metrics round-trip" `Quick
      test_protocol_round_trip;
    Alcotest.test_case "live: submit equals direct engine run" `Quick
      test_submit_equals_direct;
    Alcotest.test_case "live: composite tokens derive and agree" `Quick
      test_submit_composite_tokens;
    Alcotest.test_case "live: concurrent clients agree with direct runs" `Quick
      test_concurrent_clients_agree;
    Alcotest.test_case "live: repeated digest hits the warm cache" `Quick
      test_repeat_hits_warm_cache;
    Alcotest.test_case "live: stats and metrics count DFA compiles" `Quick
      test_stats_count_dfa_compiles;
    Alcotest.test_case "live: file submissions re-read an edited file" `Quick
      test_file_submission_sees_edits;
    Alcotest.test_case "live: manifest submissions reuse the parse memo"
      `Quick test_manifest_reuses_parse_memo;
    Alcotest.test_case "live: queue-full submissions get typed overloaded"
      `Quick test_queue_full_rejects;
    Alcotest.test_case "live: queued jobs expire past their deadline" `Quick
      test_deadline_expiry;
    Alcotest.test_case "live: malformed and oversized frames answered" `Quick
      test_malformed_and_oversized_frames;
    Alcotest.test_case "live: shutdown drains and unlinks the socket" `Quick
      test_shutdown_drains;
    Alcotest.test_case "live: loadgen campaign against in-process server"
      `Quick test_loadgen_campaign;
    Alcotest.test_case "live: loadgen percentiles are nearest-rank" `Quick
      test_loadgen_percentiles;
    Alcotest.test_case "live: one request, one connected span tree" `Quick
      test_request_span_tree;
    Alcotest.test_case "live: an untraced server records no spans" `Quick
      test_untraced_server_records_nothing;
  ]
