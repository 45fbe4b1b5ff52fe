(* posl-check: command-line checker for OUN-lite specification files.

   Subcommands:
     posl-check show file.oun                  -- parse and display specs
     posl-check refine file.oun G' G           -- decide G' ⊑ G (Def. 2)
     posl-check compose file.oun G D           -- composability + composition
     posl-check proper file.oun G' G D         -- properness (Def. 14)
     posl-check deadlock file.oun G D          -- deadlock of G ‖ D
     posl-check equal file.oun A B             -- trace-set equality
     posl-check batch manifest                 -- batch of queries, engine-run

   Verdicts are printed with their confidence (exact for the sampled
   universe, or bounded by the exploration depth), and failures carry
   counterexample traces.  The exit codes are declared once, in
   [exits], and every help page lists them. *)

open Cmdliner
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Lang = Posl_lang.Lang
module Job = Posl_engine.Job
module Engine = Posl_engine.Engine
module Manifest = Posl_engine.Manifest
module Plan = Posl_engine.Plan
module Runner = Posl_engine.Runner
module Wire = Posl_serve.Wire
module Serve = Posl_serve.Serve
module Loadgen = Posl_serve.Loadgen
module Watch = Posl_watch.Watch
module Journal = Posl_watch.Journal
module Report = Posl_report.Report
module Verdict = Posl_verdict.Verdict
module Json = Posl_verdict.Verdict.Json
module Store = Posl_store.Store
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Tlog = Posl_telemetry.Log
module Runtime = Posl_telemetry.Runtime
module Trajectory = Posl_report.Trajectory

(* CI contracts rely on these codes being distinct. *)
let exit_verdict = 1
let exit_input = 2

let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success: every checked property holds.";
      info exit_verdict
        ~doc:
          "when a check ran and the property fails (refinement refuted, \
           deadlock found, not composable, a failing batch query, ...).";
      info exit_input
        ~doc:
          "on input errors: an unreadable file, a parse error, an unknown \
           spec name, a malformed manifest, or a composition too large to \
           check (its hidden-event closure outgrows the context's cap).";
      info cli_error ~doc:"on command line parsing errors.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

(* Every subcommand is declared through here, so every help page
   documents the same exit codes. *)
let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

(* A failed run is either a failed verdict (the check worked; the
   property does not hold) or an input-side error.  CI scripts branch
   on the difference. *)
type run_error = Verdict of string | Input of string

let code = function
  | Ok () -> 0
  | Error (Verdict msg) ->
      Format.eprintf "%s@." msg;
      exit_verdict
  | Error (Input msg) ->
      Format.eprintf "%s@." msg;
      exit_input

let ( let* ) = Result.bind

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Ok ()
  with Sys_error m -> Error (Input m)

(* A spec file's specs and the adequate universe queries over it are
   posed in, through the loader manifests use. *)
let load ~extra file =
  Result.map_error
    (fun e -> Input (Manifest.input_error_message e))
    (Manifest.file_loader_typed ~extra_objects:extra () file)

(* A spec name or an ["A||B"] composition token, resolved as a manifest
   entry's is. *)
let resolve specs ~file name =
  Result.map_error (fun m -> Input m) (Manifest.resolve_name specs ~file name)

(* Run [f], which answers queries; a query whose closure outgrows the
   context's cap has no verdict, which is an input-side error (the
   specification is too large to check), not a crash. *)
let answering f =
  try f ()
  with Job.Overflow { query; cap } ->
    Error (Input (Job.overflow_message ~query ~cap))

(* Shared options. *)
let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"OUN-lite specification file.")

let name_arg n docv =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc:(docv ^ " specification name."))

let depth_arg =
  Arg.(value & opt int 6 & info [ "depth"; "d" ] ~docv:"DEPTH" ~doc:"Exploration depth bound for trace checks.")

let extra_objects_arg =
  Arg.(value & opt int 2 & info [ "extra-objects" ] ~docv:"N" ~doc:"Fresh environment objects added to the universe sample.")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Persistent verdict store directory (created if missing): cacheable \
           verdicts are reused from it and fresh ones appended to it.")

(* Open a store around [f], mapping store failures to input errors. *)
let with_store ?readonly dir f =
  match Store.open_ ?readonly dir with
  | exception Store.Error m -> Error (Input m)
  | s -> Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

let with_store_opt dir f =
  match dir with
  | None -> f None
  | Some dir -> with_store dir (fun s -> f (Some s))

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record telemetry spans for this run and write them to $(docv) as \
           Chrome trace_event JSON, loadable in Perfetto or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the Prometheus-style metrics exposition of this process to \
           $(docv) after the run.")

let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Stream structured log events (server lifecycle, watch rounds, \
           slow-request exemplars) to $(docv) as JSON lines while the \
           command runs.")

(* Stream structured log events to [log] (if given) while [f] runs. *)
let with_log_sink log f =
  match log with
  | None -> f ()
  | Some path -> (
      match open_out path with
      | exception Sys_error m -> Error (Input m)
      | oc ->
          Tlog.set_sink
            (Some
               (fun line ->
                 output_string oc line;
                 output_char oc '\n';
                 flush oc));
          Fun.protect
            ~finally:(fun () ->
              Tlog.set_sink None;
              close_out_noerr oc)
            f)

(* Export the recorded spans.  A trace written after ring wrap-around
   warns on stderr: silent drops read as "nothing else happened". *)
let write_trace path =
  match Telemetry.write_trace path with
  | exception Sys_error m -> Error (Input m)
  | () ->
      let d = Telemetry.dropped () in
      if d > 0 then
        Format.eprintf
          "posl-check: warning: %d span(s) were dropped by ring wrap-around; \
           %s is incomplete@."
          d path;
      Ok ()

(* Enable span recording when --trace was given, run [f], then write
   the requested telemetry artifacts.  Artifacts are written even when
   the run fails its verdict — the trace of a failing run is the
   interesting one — and a write failure is an input error that
   supersedes the verdict failure. *)
let with_observability ?(log = None) ~trace ~metrics f =
  if trace <> None then begin
    Telemetry.reset ();
    Telemetry.set_enabled true
  end;
  with_log_sink log @@ fun () ->
  let result = f () in
  Telemetry.set_enabled false;
  let* () = Option.fold ~none:(Ok ()) ~some:write_trace trace in
  let* () =
    Option.fold ~none:(Ok ())
      ~some:(fun path ->
        Runtime.sample ();
        write_file path (Metrics.expose ()))
      metrics
  in
  result

(* Print one verdict — a line, or with --json the single-query document
   (the verdict schema the batch --json file uses per result, see the
   README's "Verdict schema"; [depth] is null for a check that takes
   none) — and fail on a failing verdict. *)
let print_verdict ~json ~label ~kind ?depth v =
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("label", Json.Str label);
              ("kind", Json.Str kind);
              ( "depth",
                match depth with Some d -> Json.Int d | None -> Json.Null );
              ("holds", Json.Bool (Verdict.to_bool v));
              ("verdict", Verdict.to_json v);
            ]))
  else Format.printf "%s: %s@." label (Verdict.to_string v);
  if Verdict.to_bool v then Ok ()
  else Error (Verdict (Format.asprintf "check failed: %s" (Verdict.to_string v)))

(* --json for single queries: print the machine-readable document
   instead of the human-readable line. *)
let query_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the verdict as a JSON document on stdout.")

(* The query subcommands: (kind, spec-name DOCVs in positional order,
   doc).  The kind names the {!Job} query, as in a manifest. *)
let query_kinds =
  [
    ("refine", [ "REFINED"; "ABSTRACT" ],
     "Decide whether the first spec refines the second (Def. 2).");
    ("compose", [ "LEFT"; "RIGHT" ],
     "Check composability (Def. 10) and display the composition (Def. 11).");
    ("proper", [ "REFINED"; "ABSTRACT"; "CONTEXT" ],
     "Check properness of a refinement w.r.t. a context spec (Def. 14).");
    ("deadlock", [ "LEFT"; "RIGHT" ],
     "Search the composition of two specs for deadlocks.");
    ("equal", [ "LEFT"; "RIGHT" ],
     "Decide trace-set equality of two specs over the sampled universe.");
  ]

(* One query subcommand = load file, resolve names, run the job the
   engine would run, print its verdict.  Batch answers and single-shot
   answers agree by construction: with [--store] the job goes through
   [Engine.run_batch] itself (one request, one domain) so the store
   consult/write-behind path is literally the batch one; without it
   the job runs directly, sparing a one-shot call the digest. *)
let query_cmd (kind, docvs, doc) =
  let run file names depth extra json store_dir trace metrics =
    code
      (let* specs, universe = load ~extra file in
       let* query =
         Result.map_error
           (fun m -> Input m)
           (Manifest.resolve_query specs ~file ~kind names)
       in
       with_observability ~trace ~metrics @@ fun () ->
       let* verdict =
         answering @@ fun () ->
         with_store_opt store_dir @@ function
         | None -> Ok (Job.run (Tset.ctx universe) ~depth query)
         | Some s ->
             let req = Engine.request ~depth ~universe query in
             let results, _ = Engine.run_batch ~domains:1 ~store:s [ req ] in
             Ok (List.hd results).Engine.verdict
       in
       let result =
         print_verdict ~json ~label:(Job.describe query) ~kind ~depth verdict
       in
       (* compose additionally displays the composition itself *)
       (match (query, json, result) with
       | Job.Compose { left; right }, false, Ok () -> (
           match Compose.compose left right with
           | Ok comp -> Format.printf "@.%a@." Spec.pp comp
           | Error _ -> ())
       | _ -> ());
       result)
  in
  let names =
    List.fold_right
      (fun (i, docv) acc -> Term.(const List.cons $ name_arg i docv $ acc))
      (List.mapi (fun i docv -> (i + 1, docv)) docvs)
      (Term.const [])
  in
  cmd kind ~doc
    Term.(
      const run $ file_arg $ names $ depth_arg $ extra_objects_arg
      $ query_json_arg $ store_arg $ trace_arg $ metrics_arg)

(* show *)
let show_cmd =
  let run file =
    code
      (let* specs, _ = load ~extra:2 file in
       List.iter (fun s -> Format.printf "%a@.@." Spec.pp s) specs;
       Ok ())
  in
  cmd "show" ~doc:"Parse a specification file and display it."
    Term.(const run $ file_arg)

(* run: evaluate the assert statements of a file *)
let run_cmd =
  let run file depth extra =
    code
      (match Lang.parse_string (read_whole_file file) with
      | exception Sys_error m -> Error (Input m)
      | Error e -> Error (Input (Format.asprintf "%s: %a" file Lang.pp_error e))
      | Ok ast -> (
          answering @@ fun () ->
          match Runner.run_file ~depth ~extra_objects:extra ast with
          | results ->
              List.iter
                (fun r -> Format.printf "%a@." Runner.pp_result r)
                results;
              let failures =
                List.length (List.filter (fun r -> not r.Runner.holds) results)
              in
              Format.printf "%d assertion(s), %d failure(s)@."
                (List.length results) failures;
              if failures = 0 then Ok ()
              else Error (Verdict "assertions failed")
          | exception Runner.Unknown_spec (name, pos) ->
              Error
                (Input
                   (Format.asprintf "%a: unknown spec %s" Posl_lang.Ast.pp_pos
                      pos name))
          | exception Lang.Error (message, pos) ->
              Error
                (Input (Format.asprintf "%a: %s" Posl_lang.Ast.pp_pos pos message))))
  in
  cmd "run" ~doc:"Evaluate the assert statements of a specification file."
    Term.(const run $ file_arg $ depth_arg $ extra_objects_arg)

(* simulate: random walk through a spec's monitor *)
let simulate_cmd =
  let run file name steps seed extra =
    code
      (let* specs, universe = load ~extra file in
       let* s = resolve specs ~file name in
       let ctx = Tset.ctx universe in
       let alphabet = Spec.concrete_alphabet (Tset.universe ctx) s in
       let rng = Random.State.make [| seed |] in
       let rec walk h n =
         if n = 0 then h
         else
           match Bmc.enabled ctx ~alphabet (Spec.tset s) h with
           | [] ->
               Format.printf "(stuck: no enabled event)@.";
               h
           | events ->
               let e = List.nth events (Random.State.int rng (List.length events)) in
               Format.printf "%d. %a@." (Posl_trace.Trace.length h + 1)
                 Posl_trace.Event.pp e;
               walk (Posl_trace.Trace.snoc h e) (n - 1)
       in
       Format.printf "simulating %s (seed %d):@." name seed;
       let final = walk Posl_trace.Trace.empty steps in
       Format.printf "trace: %a@." Posl_trace.Trace.pp final;
       Ok ())
  in
  let steps_arg =
    Arg.(value & opt int 10 & info [ "steps"; "n" ] ~docv:"N" ~doc:"Number of events to simulate.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  in
  cmd "simulate" ~doc:"Random walk through a specification's admissible traces."
    Term.(
      const run $ file_arg $ name_arg 1 "SPEC" $ steps_arg $ seed_arg
      $ extra_objects_arg)

(* consistent: non-trivial consistency of two specs *)
let consistent_cmd =
  let run file left right extra json =
    code
      (let* specs, universe = load ~extra file in
       let* a = resolve specs ~file left in
       let* b = resolve specs ~file right in
       let v =
         Verdict.with_context
           ~universe_digest:(Job.universe_digest universe)
           (Posl_core.Consistency.verdict (Tset.ctx universe) a b)
       in
       print_verdict ~json
         ~label:(Printf.sprintf "consistent(%s, %s)" left right)
         ~kind:"consistent" v)
  in
  cmd "consistent" ~doc:"Check non-trivial consistency of two specs (Section 7)."
    Term.(
      const run $ file_arg $ name_arg 1 "LEFT" $ name_arg 2 "RIGHT"
      $ extra_objects_arg $ query_json_arg)

(* ------------------------------------------------------------------ *)
(* batch: a manifest of queries, answered by the engine                *)
(* ------------------------------------------------------------------ *)

(* The manifest grammar lives in posl.engine (Manifest) since the serve
   PR — the CLI, server and load generator share it.  Errors map to the
   input exit code. *)
let parse_manifest ~default_depth ~extra path =
  match
    Manifest.requests_of_file_typed ~default_depth ~extra_objects:extra path
  with
  | Ok requests -> Ok requests
  | Error e -> Error (Input (Manifest.input_error_detail e))

(* batch and metrics: parse the manifest, then answer it with the batch
   engine inside [observe] and hand the answers to [k]. *)
let run_manifest ~manifest ~depth ~extra ~domains ~plan ~store_dir ~observe k =
  let* requests = parse_manifest ~default_depth:depth ~extra manifest in
  if requests = [] then Error (Input (manifest ^ ": no queries"))
  else
    observe @@ fun () ->
    let* results, stats =
      answering @@ fun () ->
      with_store_opt store_dir (fun store ->
          Ok (Engine.run_batch ?domains ~plan ?store requests))
    in
    k results stats

let manifest_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MANIFEST"
       ~doc:"Query manifest ('use FILE', then one query per line).")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains"; "j" ] ~docv:"N"
       ~doc:"Worker domains (default: POSL_DOMAINS, else 1).")

let plan_arg =
  Arg.(
    value
    & opt (enum [ ("auto", Plan.Auto); ("off", Plan.Off) ]) Plan.Auto
    & info [ "plan" ] ~docv:"MODE"
        ~doc:
          "Compositional planner mode: $(b,auto) (default) derives verdicts \
           for composite refine/equal queries from component verdicts when \
           the side conditions of Theorems 7/16 hold; $(b,off) always checks \
           directly.")

let batch_cmd =
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Write the full machine-readable result list to this file.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "slow-ms" ] ~docv:"N"
          ~doc:
            "After the table, log every query that took at least $(docv) \
             milliseconds, with its telemetry span id when tracing.")
  in
  let run manifest depth extra domains plan json_path store_dir trace metrics
      log slow_ms =
    code
      (run_manifest ~manifest ~depth ~extra ~domains ~plan ~store_dir
         ~observe:(with_observability ~log ~trace ~metrics)
       @@ fun results stats ->
       let table =
         Report.create [ "#"; "query"; "verdict"; "plan"; "cached"; "ms" ]
       in
       List.iteri
         (fun i (r : Engine.result) ->
           Report.add_row table
             [
               string_of_int (i + 1);
               r.Engine.request.Engine.label;
               Verdict.to_string r.Engine.verdict;
               (match r.Engine.verdict.Verdict.provenance.Verdict.procedure
                with
               | Some (Verdict.Derived { rule; _ }) -> rule
               | Some _ | None -> "");
               (if r.Engine.from_store then "store"
                else if r.Engine.cached then "hit"
                else "");
               Printf.sprintf "%.1f" r.Engine.ms;
             ])
         results;
       Report.print table;
       (match slow_ms with
       | None -> ()
       | Some thresh ->
           let slow =
             List.filter
               (fun (r : Engine.result) -> r.Engine.ms >= float_of_int thresh)
               results
             |> List.sort (fun (a : Engine.result) (b : Engine.result) ->
                    compare b.Engine.ms a.Engine.ms)
           in
           if slow <> [] then begin
             Format.printf "@.slow queries (>= %d ms):@." thresh;
             List.iter
               (fun (r : Engine.result) ->
                 Tlog.event ~level:Tlog.Warn
                   ~fields:
                     [
                       ("query", Tlog.S r.Engine.request.Engine.label);
                       ("ms", Tlog.F r.Engine.ms);
                       ("slow_ms", Tlog.I thresh);
                     ]
                   "batch.slow";
                 Format.printf "  %8.1f ms  %s%s@." r.Engine.ms
                   r.Engine.request.Engine.label
                   (match r.Engine.span_id with
                   | Some id -> Printf.sprintf "  [span %d]" id
                   | None -> ""))
               slow
           end);
       let failed =
         List.length
           (List.filter
              (fun (r : Engine.result) -> not (Verdict.to_bool r.Engine.verdict))
              results)
       in
       Format.printf "@.%a@." Engine.pp_stats stats;
       Format.printf "%s@." (Json.to_string (Wire.json_of_stats stats ~failed));
       let* () =
         match json_path with
         | None -> Ok ()
         | Some path ->
             write_file path
               (Json.to_string
                  (Json.Obj
                     [
                       ("stats", Wire.json_of_stats stats ~failed);
                       ( "results",
                         Json.List (List.map Wire.json_of_result results) );
                     ])
               ^ "\n")
       in
       if failed = 0 then Ok ()
       else
         Error
           (Verdict
              (Printf.sprintf "%d of %d quer%s failed" failed
                 (List.length results)
                 (if List.length results = 1 then "y" else "ies"))))
  in
  cmd "batch" ~doc:"Answer a manifest of queries with the parallel batch engine."
    Term.(
      const run $ manifest_arg $ depth_arg $ extra_objects_arg $ domains_arg
      $ plan_arg $ json_arg $ store_arg $ trace_arg $ metrics_arg $ log_arg
      $ slow_ms_arg)

(* metrics: run a manifest and print the Prometheus exposition.  The
   exit code only reflects input errors — the point of this subcommand
   is the measurement, and failing verdicts are visible in
   posl_engine_* counters anyway. *)
let metrics_cmd =
  let run manifest depth extra domains plan store_dir =
    code
      (let* () =
         (* observe the run with the pause heartbeat, so the
            exposition includes live gc/heap gauges and the
            posl_gc_pause_ms histogram *)
         run_manifest ~manifest ~depth ~extra ~domains ~plan ~store_dir
           ~observe:(fun f ->
             Runtime.start ();
             Fun.protect ~finally:Runtime.stop f)
           (fun _ _ -> Ok ())
       in
       print_string (Metrics.expose ());
       Ok ())
  in
  cmd "metrics"
    ~doc:
      "Answer a manifest of queries and print the Prometheus-style text \
       exposition of the process metrics registry (counters, gauges, \
       latency histograms) to stdout.  Exits non-zero only on input \
       errors."
    Term.(
      const run $ manifest_arg $ depth_arg $ extra_objects_arg $ domains_arg
      $ plan_arg $ store_arg)

(* ------------------------------------------------------------------ *)
(* store: maintenance of the persistent verdict store                  *)
(* ------------------------------------------------------------------ *)

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Verdict store directory.")

let store_stats_cmd =
  let run dir =
    code
      (with_store ~readonly:true dir @@ fun s ->
       Format.printf "%a@." Store.pp_stats (Store.stats s);
       List.iter
         (fun d -> Format.printf "damage: %a@." Store.pp_damage d)
         (Store.damage s);
       Ok ())
  in
  cmd "stats" ~doc:"Show index and log statistics of a verdict store."
    Term.(const run $ store_dir_arg)

let store_verify_cmd =
  let run dir =
    code
      (match Store.verify dir with
      | Error m -> Error (Input m)
      | Ok r ->
          Format.printf "intact records:   %d (%d distinct digest%s)@."
            r.Store.intact r.Store.distinct
            (if r.Store.distinct = 1 then "" else "s");
          Format.printf "torn tail bytes:  %d@." r.Store.torn_bytes;
          Format.printf "damaged records:  %d@."
            (List.length r.Store.violations);
          List.iter
            (fun d -> Format.printf "  %a@." Store.pp_damage d)
            r.Store.violations;
          if r.Store.violations = [] && r.Store.torn_bytes = 0 then Ok ()
          else
            Error
              (Verdict
                 (Printf.sprintf "store %s is damaged (%d record%s, %d tail byte%s)"
                    dir
                    (List.length r.Store.violations)
                    (if List.length r.Store.violations = 1 then "" else "s")
                    r.Store.torn_bytes
                    (if r.Store.torn_bytes = 1 then "" else "s"))))
  in
  cmd "verify"
    ~doc:
      "Integrity-scan a verdict store: every record must frame, checksum \
       and round-trip through the verdict parser.  Exits 1 if any damage \
       is found."
    Term.(const run $ store_dir_arg)

let store_gc_cmd =
  let manifest_opt_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "manifest" ] ~docv:"MANIFEST"
          ~doc:"Keep only records reachable from this manifest's queries.")
  in
  let run dir manifest depth extra trace metrics =
    code
      (with_observability ~trace ~metrics @@ fun () ->
       let* requests = parse_manifest ~default_depth:depth ~extra manifest in
       (* The store is keyed by the depth-independent digest, so the
          keep-set is the manifest's base digests.  An empty manifest
          keeps nothing. *)
       let keep_tbl = Hashtbl.create 64 in
       List.iter
         (fun (r : Engine.request) ->
           match
             Posl_engine.Digest.query_base ~universe:r.Engine.universe
               r.Engine.query
           with
           | Some d -> Hashtbl.replace keep_tbl d ()
           | None -> ())
         requests;
       with_store dir @@ fun s ->
       let kept, dropped = Store.gc s ~keep:(Hashtbl.mem keep_tbl) in
       Format.printf "gc %s: kept %d record%s, dropped %d@." dir kept
         (if kept = 1 then "" else "s")
         dropped;
       Ok ())
  in
  cmd "gc"
    ~doc:
      "Compact a verdict store, dropping superseded and damaged records \
       and records not referenced by the given manifest."
    Term.(
      const run $ store_dir_arg $ manifest_opt_arg $ depth_arg
      $ extra_objects_arg $ trace_arg $ metrics_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store" ~exits
       ~doc:"Inspect and maintain a persistent verdict store.")
    [ store_stats_cmd; store_verify_cmd; store_gc_cmd ]

(* ------------------------------------------------------------------ *)
(* serve / loadgen: the resident verification service                  *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on (serve) or connect to (loadgen) this Unix-domain socket.")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Listen on (serve) or connect to (loadgen) this TCP address.  A \
           port of 0 lets the kernel choose; serve prints the bound address.")

let addr_of socket tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (`Unix path)
  | None, Some hostport -> (
      match String.rindex_opt hostport ':' with
      | None -> Error (Input ("--tcp wants HOST:PORT, got " ^ hostport))
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Ok (`Tcp (host, p))
          | Some _ | None -> Error (Input ("bad port: " ^ port))))
  | Some _, Some _ -> Error (Input "give either --socket or --tcp, not both")
  | None, None -> Error (Input "an address is required: --socket PATH or --tcp HOST:PORT")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"N"
        ~doc:
          "Per-job admission deadline: jobs still queued after $(docv) \
           milliseconds answer deadline_exceeded instead of running.")

(* --json PATH of loadgen and report *)
let report_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Write the machine-readable report to this file.")

let serve_cmd =
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers"; "j" ] ~docv:"N"
          ~doc:"Worker domains answering queries (default: POSL_DOMAINS, \
                else 1).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: submissions that would queue more than \
             $(docv) jobs get a typed overloaded response.")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt int Posl_serve.Frame.default_max_bytes
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Reject incoming frames larger than $(docv) bytes.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log a structured $(b,serve.slow) exemplar (trace id, op, \
             queue wait, slowest job) for every request handled in at \
             least $(docv) milliseconds.")
  in
  let run socket tcp workers max_queue deadline_ms store_dir max_frame slow_ms
      trace log =
    code
      (let* addr = addr_of socket tcp in
       let cfg =
         Serve.config ?workers ~max_queue ?deadline_ms ?store_dir ~max_frame
           ?slow_ms addr
       in
       (* serve runs until interrupted, so the log sink streams and
          spans record (with --trace) for the server's whole life; the
          export after the drain holds the most recent rings' worth,
          keyed by request trace id *)
       with_observability ~log ~trace ~metrics:None @@ fun () ->
       match
         Serve.run
           ~on_ready:(fun bound ->
             Format.printf "posl-check serve: listening on %a (%d workers, queue %d)@."
               Wire.pp_addr bound cfg.Serve.workers cfg.Serve.max_queue)
           cfg
       with
       | () ->
           Format.printf "posl-check serve: drained, bye@.";
           Ok ()
       | exception Unix.Unix_error (e, fn, arg) ->
           Error
             (Input
                (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e)))
       | exception Store.Error m -> Error (Input m))
  in
  cmd "serve"
    ~doc:
      "Run the resident verification service: length-prefixed JSON frames \
       over a Unix or TCP socket, answered by worker domains behind a \
       bounded admission queue, with every submission landing on the \
       process-lifetime warm caches.  SIGINT/SIGTERM (or the shutdown op) \
       drain gracefully and exit 0."
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ max_queue_arg
      $ deadline_ms_arg $ store_arg $ max_frame_arg $ slow_ms_arg $ trace_arg
      $ log_arg)

let loadgen_cmd =
  let manifest_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "manifest" ] ~docv:"MANIFEST"
          ~doc:"Draw the submission pool from this manifest's queries.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:"Total submissions across all clients.")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients"; "c" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let repeat_arg =
    Arg.(
      value & opt float 0.5
      & info [ "repeat" ] ~docv:"P"
          ~doc:
            "Probability of resubmitting a random earlier pool entry — \
             repeats exercise the server's warm caches.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"QPS"
          ~doc:
            "Open-loop arrival at $(docv) aggregate requests/sec (default: \
             closed loop — each client fires as soon as its response lands).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Repeat-draw random seed.")
  in
  let server_metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "server-metrics" ] ~docv:"PATH"
          ~doc:
            "After the run, fetch the server's metrics op and write the \
             Prometheus text exposition to $(docv).")
  in
  let run socket tcp manifest requests clients repeat rate depth deadline_ms
      seed json_path server_metrics =
    code
      (let* addr = addr_of socket tcp in
       let* text =
         try Ok (read_whole_file manifest) with Sys_error m -> Error (Input m)
       in
       let* entries =
         match
           Manifest.entries_typed ~path:manifest
             ~dir:(Filename.dirname manifest) ~default_depth:depth text
         with
         | Ok [] -> Error (Input (manifest ^ ": no queries"))
         | Ok entries -> Ok entries
         | Error e -> Error (Input (Manifest.input_error_message e))
       in
       let pool =
         (* spec paths travel to a server with its own cwd — absolutize *)
         let absolute f =
           if Filename.is_relative f then Filename.concat (Sys.getcwd ()) f
           else f
         in
         List.map
           (fun (e : Manifest.entry) ->
             Wire.submission ~depth:e.Manifest.depth ?deadline_ms
               ~queries:
                 [ { Wire.kind = e.Manifest.kind; names = e.Manifest.names } ]
               (`File (absolute e.Manifest.file)))
           entries
       in
       let cfg =
         {
           Loadgen.requests;
           clients;
           repeat;
           mode =
             (match rate with
             | None -> Loadgen.Closed
             | Some r -> Loadgen.Open r);
           seed;
         }
       in
       let* report =
         match Loadgen.run addr ~pool cfg with
         | Ok r -> Ok r
         | Error m -> Error (Input m)
       in
       Format.printf "%a@." Loadgen.pp_report report;
       let* () =
         match json_path with
         | None -> Ok ()
         | Some path ->
             write_file path
               (Json.to_string (Loadgen.json_of_report report) ^ "\n")
       in
       let* () =
         match server_metrics with
         | None -> Ok ()
         | Some path -> (
             match Posl_serve.Client.connect addr with
             | exception Unix.Unix_error (e, fn, _) ->
                 Error
                   (Input
                      (Printf.sprintf "metrics fetch: %s: %s" fn
                         (Unix.error_message e)))
             | conn ->
                 Fun.protect
                   ~finally:(fun () -> Posl_serve.Client.close conn)
                   (fun () ->
                     match
                       Posl_serve.Client.call conn
                         (Wire.request_json Wire.Metrics)
                     with
                     | Error m -> Error (Input ("metrics fetch: " ^ m))
                     | Ok (Json.Obj fields) -> (
                         match List.assoc_opt "metrics" fields with
                         | Some (Json.Str text) -> write_file path text
                         | _ ->
                             Error
                               (Input "metrics fetch: malformed response"))
                     | Ok _ -> Error (Input "metrics fetch: malformed response")))
       in
       if report.Loadgen.errors > 0 then
         Error
           (Verdict
              (Printf.sprintf "%d of %d requests errored"
                 report.Loadgen.errors report.Loadgen.requests))
       else Ok ())
  in
  cmd "loadgen"
    ~doc:
      "Drive a running verification server with concurrent clients: \
       closed- or open-loop arrival, a configurable repeat ratio to \
       exercise warm caches, and a latency/throughput report.  Exits \
       non-zero only on transport errors (overload rejections are counted, \
       not fatal)."
    Term.(
      const run $ socket_arg $ tcp_arg $ manifest_arg $ requests_arg
      $ clients_arg $ repeat_arg $ rate_arg $ depth_arg $ deadline_ms_arg
      $ seed_arg $ report_json_arg $ server_metrics_arg)

(* json: native validation of the CLI's own JSON documents (used by the
   smoke test instead of shelling out to python). *)
let json_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSON document to validate ('-' for stdin).")
  in
  let run file =
    code
      (let* text =
         try
           Ok
             (if String.equal file "-" then In_channel.input_all stdin
              else read_whole_file file)
         with Sys_error m -> Error (Input m)
       in
       let* doc =
         match Json.of_string text with
         | Ok doc -> Ok doc
         | Error e -> Error (Input (Printf.sprintf "%s: %s" file e))
       in
       (* Every "verdict" field anywhere in the document must round-trip
          through the typed parser. *)
       let checked = ref 0 and errors = ref [] in
       let rec walk = function
         | Json.Obj fields ->
             List.iter
               (fun (k, v) ->
                 (if String.equal k "verdict" then
                    match Verdict.of_json v with
                    | Ok _ -> incr checked
                    | Error e -> errors := e :: !errors);
                 walk v)
               fields
         | Json.List l -> List.iter walk l
         | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _ ->
             ()
       in
       walk doc;
       match List.rev !errors with
       | [] ->
           Format.printf "%s: valid JSON, %d verdict object%s round-tripped@."
             file !checked
             (if !checked = 1 then "" else "s");
           Ok ()
       | e :: _ ->
           Error
             (Input (Printf.sprintf "%s: verdict does not round-trip: %s" file e)))
  in
  cmd "json"
    ~doc:
      "Validate a JSON document produced by this tool: parse it and \
       round-trip every embedded verdict object through the typed verdict \
       parser."
    Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* watch / session: incremental re-verification                        *)
(* ------------------------------------------------------------------ *)

let poll_ms_arg =
  Arg.(
    value & opt int 200
    & info [ "poll-ms" ] ~docv:"MS"
        ~doc:"Interval between content polls of the watched files.")

let rounds_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rounds" ] ~docv:"N"
        ~doc:
          "Exit after $(docv) rounds (the initial cold round counts) — \
           mainly for scripting and tests; default: run until interrupted. \
           A bounded run whose last round left queries that do not \
           elaborate exits 2, as $(b,batch) does.")

let watch_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit one self-contained JSON object per round on stdout.")

(* Run the watch loop with clean SIGINT/SIGTERM shutdown (exit 0 — an
   interactive loop being told to stop is not a failure), invoking
   [on_round] with the per-round report.  A closure overflow ends the
   loop as an input error, as in batch, and so does a bounded run
   ([--rounds N]) whose last round left queries with no verdict. *)
let run_watch_loop ~manifest ~depth ~extra ~domains ~plan ~store_dir ~poll_ms
    ~rounds ~on_round =
  answering @@ fun () ->
  with_store_opt store_dir @@ fun store ->
  let session = Engine.session ?store () in
  let w =
    Watch.create ~default_depth:depth ~extra_objects:extra ~plan ?domains
      ~session manifest
  in
  let stopped = ref false in
  let handler = Sys.Signal_handle (fun _ -> stopped := true) in
  let old_int = Sys.signal Sys.sigint handler in
  let old_term = Sys.signal Sys.sigterm handler in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term)
    (fun () ->
      let last = ref None in
      let on_round r =
        last := Some r;
        on_round r
      in
      ignore
        (Watch.run ~poll_ms ?max_rounds:rounds
           ~stop:(fun () -> !stopped)
           ~on_round w);
      match !last with
      | Some { Watch.errored; total; _ }
        when errored > 0 && Option.is_some rounds && not !stopped ->
          Error
            (Input
               (Printf.sprintf "%s: %d of %d queries did not elaborate"
                  manifest errored total))
      | _ -> Ok ())

let print_round ~json r =
  if json then begin
    print_string (Json.to_string (Watch.json_of_report r));
    print_newline ()
  end
  else Format.printf "%a" Watch.pp_report r;
  flush stdout

let watch_cmd =
  let run manifest depth extra domains plan store_dir poll_ms rounds json
      trace metrics log =
    code
      (with_observability ~log ~trace ~metrics @@ fun () ->
       run_watch_loop ~manifest ~depth ~extra ~domains ~plan ~store_dir
         ~poll_ms ~rounds ~on_round:(print_round ~json))
  in
  cmd "watch"
    ~doc:
      "Re-verify a manifest incrementally, over a resident warm session, \
       as its spec files change: a query re-runs only when its file's \
       universe or one of the specs it names moved, or when it has no \
       verdict yet, and each round reports only the verdicts that \
       flipped.  Parse errors in a half-saved file are diagnostics; \
       previous verdicts stand."
    Term.(
      const run $ manifest_arg $ depth_arg $ extra_objects_arg $ domains_arg
      $ plan_arg $ store_arg $ poll_ms_arg $ rounds_limit_arg $ watch_json_arg
      $ trace_arg $ metrics_arg $ log_arg)

let session_cmd =
  let session_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "session" ] ~docv:"DIR"
          ~doc:
            "Session directory: each edit round is appended to a CRC-framed \
             journal here, so the round history (and the convergence signal) \
             survives process restarts.")
  in
  let window_arg =
    Arg.(
      value & opt int 3
      & info [ "window" ] ~docv:"K"
          ~doc:
            "Rounds of history the convergence signal looks at: converging \
             means the failing count fell at every step of the window.")
  in
  let run manifest depth extra domains plan store_dir poll_ms rounds json
      session_dir window trace metrics log =
    code
      (with_observability ~log ~trace ~metrics @@ fun () ->
       match Journal.open_ session_dir with
       | exception Journal.Error m -> Error (Input m)
       | journal ->
           Fun.protect ~finally:(fun () -> Journal.close journal)
           @@ fun () ->
           let replayed = Journal.rounds journal in
           let signal rs = Format.asprintf "%a" Journal.pp_signal
               (Journal.signal ~window rs)
           in
           (* Replaying the journal re-establishes the session exactly
              where the previous process left it: same round history,
              same signal, numbering continues. *)
           if json then begin
             print_string
               (Json.to_string
                  (Json.Obj
                     [
                       ( "replayed",
                         Json.List (List.map Journal.json_of_round replayed) );
                       ("signal", Json.Str (signal replayed));
                     ]));
             print_newline ();
             flush stdout
           end
           else begin
             List.iter
               (fun r -> Format.printf "  %a@." Journal.pp_round r)
               replayed;
             Format.printf "session: %d round%s replayed, signal: %s@."
               (List.length replayed)
               (if List.length replayed = 1 then "" else "s")
               (signal replayed);
             flush stdout
           end;
           let base = Journal.next_round journal - 1 in
           let on_round (r : Watch.report) =
             Journal.append journal
               {
                 Journal.round = base + r.Watch.round;
                 failing = r.Watch.failing;
                 flips = List.length r.Watch.flips;
                 invalidated = r.Watch.invalidated;
                 reused = r.Watch.reused;
                 elapsed_ms = r.Watch.elapsed_ms;
               };
             let s = signal (Journal.rounds journal) in
             if json then begin
               match Watch.json_of_report r with
               | Json.Obj fields ->
                   print_string
                     (Json.to_string
                        (Json.Obj
                           (fields
                           @ [
                               ("session_round", Json.Int (base + r.Watch.round));
                               ("signal", Json.Str s);
                             ])));
                   print_newline ();
                   flush stdout
               | _ -> assert false
             end
             else begin
               (* the session-wide round number, not the watcher-local one *)
               print_round ~json:false
                 { r with Watch.round = base + r.Watch.round };
               Format.printf "signal: %s@." s;
               flush stdout
             end
           in
           run_watch_loop ~manifest ~depth ~extra ~domains ~plan ~store_dir
             ~poll_ms ~rounds ~on_round)
  in
  cmd "session"
    ~doc:
      "An interactive refinement session: the watch loop plus a durable \
       round journal.  Every edit round is recorded (failing count, \
       flips, counters, elapsed) in $(b,--session) DIR, the loop reports \
       whether the session is converging (failures strictly decreasing \
       over the last $(b,--window) rounds), and a restarted session \
       replays its history and continues the numbering."
    Term.(
      const run $ manifest_arg $ depth_arg $ extra_objects_arg $ domains_arg
      $ plan_arg $ store_arg $ poll_ms_arg $ rounds_limit_arg $ watch_json_arg
      $ session_dir_arg $ window_arg $ trace_arg $ metrics_arg $ log_arg)

(* ------------------------------------------------------------------ *)
(* report: perf-trajectory regression report                           *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let baseline_arg =
    Arg.(
      value & opt string "."
      & info [ "baseline" ] ~docv:"DIR"
          ~doc:
            "Directory holding the committed campaign snapshots \
             (BENCH_*.json); every campaign found here is compared.")
  in
  let live_arg =
    Arg.(
      value & opt string "_build/bench"
      & info [ "live" ] ~docv:"DIR"
          ~doc:"Directory holding the fresh bench run's BENCH_*.json files.")
  in
  let slack_arg =
    Arg.(
      value & opt float 2.0
      & info [ "slack" ] ~docv:"X"
          ~doc:
            "Tolerance multiplier: timings may grow to $(docv) x baseline \
             and rates may fall to baseline / $(docv) before a check fails. \
             Boolean claims get no slack.")
  in
  let md_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "md" ] ~docv:"PATH"
          ~doc:
            "Write the markdown report to this file (it always goes to \
             stdout too).")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Perf-gate mode: exit 1 when any campaign regressed or its \
             live file is missing.")
  in
  let run baseline live slack json_path md_path gate =
    code
      (match
         Trajectory.run ~slack ~baseline_dir:baseline ~live_dir:live ()
       with
      | Error m -> Error (Input m)
      | Ok t ->
          let md = Trajectory.to_markdown t in
          print_string md;
          let* () =
            Option.fold ~none:(Ok ()) ~some:(fun p -> write_file p md) md_path
          in
          let* () =
            Option.fold ~none:(Ok ())
              ~some:(fun p ->
                write_file p (Json.to_string (Trajectory.to_json t) ^ "\n"))
              json_path
          in
          if gate && not t.Trajectory.ok then
            Error
              (Verdict
                 (Printf.sprintf "perf gate: %d campaign(s) not passing"
                    (List.length
                       (List.filter
                          (fun (c : Trajectory.campaign) ->
                            c.Trajectory.status <> Trajectory.Pass)
                          t.Trajectory.campaigns))))
          else Ok ())
  in
  cmd "report"
    ~doc:
      "Compare a fresh bench run against the committed BENCH_*.json \
       snapshots and render a perf-trajectory report (markdown to \
       stdout, optionally JSON): boolean paper claims are hard gates, \
       timings and rates get a slack multiplier.  With $(b,--gate), any \
       regression or missing live campaign exits 1 — CI's perf gate."
    Term.(
      const run $ baseline_arg $ live_arg $ slack_arg
      $ report_json_arg $ md_arg $ gate_arg)

let main_cmd =
  let doc = "composition and refinement checker for partial object specifications" in
  let info = Cmd.info "posl-check" ~version:"1.1.0" ~doc ~exits in
  let query_cmds = List.map query_cmd query_kinds in
  Cmd.group info
    ((show_cmd :: query_cmds)
    @ [
        run_cmd;
        simulate_cmd;
        consistent_cmd;
        batch_cmd;
        watch_cmd;
        session_cmd;
        metrics_cmd;
        store_cmd;
        serve_cmd;
        loadgen_cmd;
        report_cmd;
        json_cmd;
      ])

let () = exit (Cmd.eval' main_cmd)
