(* pbdrive: the benchmark's in-process driver.

     pbdrive watch --dir DIR --rounds N [--trace]
     pbdrive replay-cli --dir DIR --ops FILE --json FILE
     pbdrive replay-serve --dir DIR --ops FILE --store DIR
     pbdrive reference

   [watch] runs the watch-edit workload through Watch.create/Watch.poll
   (the CLI loop's --poll-ms sleep is a setting, not work, so it is left
   out).  The replay subcommands re-run a timed workload's ops in-process
   through the public functions the CLI and the server call, in the same
   order, so the traced run can time each layer; see traced.py.  Each of
   these prints one JSON object as its last line.  [reference] runs the
   reference kernel once per line read and prints its CPU ms. *)

module Watch = Posl_watch.Watch
module Verdict = Posl_verdict.Verdict
module Json = Posl_verdict.Verdict.Json
module Lang = Posl_lang.Lang
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Prs_cache = Posl_tset.Prs_cache
module Job = Posl_engine.Job
module Engine = Posl_engine.Engine
module Manifest = Posl_engine.Manifest
module Digest = Posl_engine.Digest
module Cache = Posl_engine.Cache
module Counters = Posl_engine.Counters
module Store = Posl_store.Store
module Frame = Posl_serve.Frame
module Wire = Posl_serve.Wire
module Report = Posl_report.Report

module Tel = Posl_telemetry.Telemetry

let now () = float_of_int (Tel.now_ns ()) /. 1e9

(* CPU seconds (user + system, all threads) this process has used so far:
   the figure the timed metrics are taken from, as it leaves out the time
   the hypervisor or other processes held the CPU. *)
let cpu () = Sys.time ()

(* --- reference kernel ---------------------------------------------------

   A fixed piece of work in the style of the program's own (a balanced map,
   a hash table of strings, a sorted list: allocation, comparison, hashing),
   built from the standard library only, so no change to posl changes it.
   It runs in a process of its own ([pbdrive reference]), on the CPU the
   measured work runs on, right after each measured op; the timed metrics
   are the op's CPU time over the kernel's.  On a shared host the CPU's
   speed swings by half within minutes, and both move with it. *)

module IM = Map.Make (Int)

let reference () =
  let c0 = cpu () in
  let m = ref IM.empty in
  for i = 0 to 1499 do m := IM.add ((i * 7919) mod 2003) i !m done;
  let h = Hashtbl.create 256 in
  IM.iter (fun k v -> Hashtbl.replace h (string_of_int k) v) !m;
  let l = List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) h []) in
  ignore (Sys.opaque_identity l);
  (cpu () -. c0) *. 1000.

(* [pbdrive reference]: one kernel run per input line, its CPU ms on
   stdout. *)
let serve_reference () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.6f\n%!" (reference ())
    done
  with End_of_file -> ()

(* A [pbdrive reference] child of this process, on its CPUs. *)
let reference_child () =
  let ic, oc = Unix.open_process_args Sys.executable_name [| Sys.executable_name; "reference" |] in
  let sample () =
    output_char oc '\n';
    flush oc;
    float_of_string (input_line ic)
  in
  let close () = ignore (Unix.close_process (ic, oc)) in
  (sample, close)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")

let words l =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l)
  |> List.filter (( <> ) "")

let vm_hwm_kb () =
  lines "/proc/self/status"
  |> List.find_map (fun l ->
         match words l with
         | [ "VmHWM:"; kb; _ ] -> int_of_string_opt kb
         | _ -> None)
  |> Option.value ~default:0

(* --- JSON output: flat objects of numbers and number lists ------------- *)

type jv = I of int | F of float | L of float list | O of (string * jv) list

let rec json = function
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.6f" f
  | L xs -> "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") xs) ^ "]"
  | O kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json v)) kvs)
      ^ "}"

(* --- tracing: spans around public calls, kept in memory ------------------

   The benchmark records a span (name, start, stop) around each public call
   it makes.  Inside an op, its spans are merged with the program's own
   telemetry spans of that op and nested by interval containment (the
   replay runs on one domain), which gives every span its parent and its
   self time: its duration minus what its direct children cover.  A span
   outside any op is a probe: a timed call the program did not make in
   the op, repeated beside it to time one public function.  Probes count
   for their name's per-call figures, never for the stage table or the
   coverage.  Everything stays in memory until the summary is printed. *)

module Trace = struct
  type span = { name : string; start : int; stop : int }

  let on = ref false
  let in_op = ref false
  let mine : span list ref = ref []
  let ops = ref 0
  let op_ns = ref 0  (* summed duration of op root spans *)
  let covered_ns = ref 0  (* ... of which child spans cover *)
  let self_ns : (string, int) Hashtbl.t = Hashtbl.create 64
  let dur_ns : (string, int) Hashtbl.t = Hashtbl.create 64
  let calls : (string, int) Hashtbl.t = Hashtbl.create 64

  let bump tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

  let account name ~dur =
    bump dur_ns name dur;
    bump calls name 1

  let span name f =
    if not !on then f ()
    else begin
      let start = Tel.now_ns () in
      let finish () =
        let stop = Tel.now_ns () in
        if !in_op then mine := { name; start; stop } :: !mine
        else account name ~dur:(stop - start)
      in
      match f () with
      | v -> finish (); v
      | exception e -> finish (); raise e
    end

  (* Nest by containment and account self times; [root] names the op. *)
  let settle ~root spans =
    let sorted =
      List.sort (fun a b -> compare (a.start, b.stop * -1) (b.start, a.stop * -1)) spans
    in
    let children = Hashtbl.create 16 in
    let rec place stack s =
      match stack with
      | (p, _) :: rest when p.stop < s.stop || p.stop <= s.start -> place rest s
      | (_, pi) :: _ ->
          bump children pi (s.stop - s.start);
          stack
      | [] -> stack
    in
    let _ =
      List.fold_left
        (fun (stack, i) s -> ((s, i) :: place stack s, i + 1))
        ([], 0) sorted
    in
    List.iteri
      (fun i s ->
        let dur = s.stop - s.start in
        let covered = Option.value ~default:0 (Hashtbl.find_opt children i) in
        account s.name ~dur;
        bump self_ns s.name (dur - covered);
        if s.name = root then begin
          op_ns := !op_ns + dur;
          covered_ns := !covered_ns + covered
        end)
      sorted

  (* One op: a root span [name] around [f], merged with the program's
     spans of the same interval. *)
  let op ?(name = "op") f =
    if not !on then f ()
    else begin
      Tel.reset ();
      mine := [];
      in_op := true;
      let v = Fun.protect ~finally:(fun () -> in_op := false) (fun () -> span name f) in
      let prog =
        List.map
          (fun (t : Tel.span) ->
            { name = t.Tel.name; start = t.Tel.start_ns; stop = t.Tel.start_ns + t.Tel.dur_ns })
          (Tel.spans ())
      in
      settle ~root:name (!mine @ prog);
      incr ops;
      v
    end

  let enable b =
    on := b;
    Tel.set_enabled b

  let get tbl names =
    List.fold_left (fun acc n -> acc + Option.value ~default:0 (Hashtbl.find_opt tbl n)) 0 names

  (* Mean duration per call of the named spans, in ms. *)
  let per_call_ms names =
    let c = get calls names in
    if c = 0 then 0. else float_of_int (get dur_ns names) /. float_of_int c /. 1e6

  (* Summed duration of the named spans per op, in ms. *)
  let per_op_ms names =
    if !ops = 0 then 0. else float_of_int (get dur_ns names) /. float_of_int !ops /. 1e6

  (* Summed duration of the named spans, in ms. *)
  let total_ms names = float_of_int (get dur_ns names) /. 1e6

  (* What the stages cover of an op, in ms per op. *)
  let covered_ms () =
    if !ops = 0 then 0. else float_of_int !covered_ns /. float_of_int !ops /. 1e6

  let coverage () =
    if !op_ns = 0 then 0. else float_of_int !covered_ns /. float_of_int !op_ns

  (* Self time per span name, ms per op: the stage table. *)
  let stages () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) self_ns []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (k, v) -> (k, F (float_of_int v /. float_of_int (max 1 !ops) /. 1e6)))
end

(* Counters the program already exports, read from the process registry's
   Prometheus exposition (name value lines; histograms as _sum/_count). *)
let counters () =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' (Posl_telemetry.Metrics.expose ())
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' && not (String.contains l '{') then
           match words l with
           | [ k; v ] -> (
               match float_of_string_opt v with
               | Some f -> Hashtbl.replace tbl k f
               | None -> ())
           | _ -> ());
  tbl

let delta before after k =
  Option.value ~default:0. (Hashtbl.find_opt after k)
  -. Option.value ~default:0. (Hashtbl.find_opt before k)

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* Layer metrics read from counter deltas over [ops] ops. *)
let counter_metrics before after ~ops =
  let d = delta before after and n = float_of_int (max 1 ops) in
  let compiles = d "posl_tset_dfa_compile_ms_count" in
  let pairs = d "posl_bmc_antichain_pairs_total" in
  [
    ("tset.states_interned", F (d "posl_tset_interned_states_total" /. n));
    ("tset.dfa_compiles", F (compiles /. n));
    ( "tset.dfa_compile_ms",
      F (if compiles = 0. then 0. else d "posl_tset_dfa_compile_ms_sum" /. compiles) );
    ("bmc.antichain_pairs", F (pairs /. n));
    ("bmc.prune_ratio", F (ratio (d "posl_bmc_antichain_prunes_total") pairs));
    ( "engine.plan_derived_ratio",
      F (ratio (d "posl_engine_derived_hits_total") (d "posl_engine_plan_fallbacks_total")) );
    ("store.writes", F (d "posl_engine_store_writes_total" /. n));
    ( "engine.cache_hit_ratio",
      F (ratio (d "posl_engine_cache_hits_total") (d "posl_engine_cache_misses_total")) );
  ]

(* Allocation and major collections per op, from the runtime. *)
let gc_probe () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

let gc_metrics (w0, m0) (w1, m1) ~ops =
  let n = float_of_int (max 1 ops) in
  [
    ("gc.minor_mb_per_op", F ((w1 -. w0) *. 8. /. 1048576. /. n));
    ("gc.major_per_op", F (float_of_int (m1 - m0) /. n));
  ]

(* --- replays: the timed workloads' ops, in-process ------------------------

   An ops file holds one op a line, as traced.py writes it from the same
   seeded schedule the timed run uses:

     single FILE EXPECT KIND NAME...     a one-shot CLI query
     batch MANIFEST EXPECT,EXPECT,...    a per-family batch invocation
     warm FILE EXPECT KIND NAME...       serve: the set-up warm pass
     q FILE EXPECT KIND NAME...          serve: one spec_text submission

   Each replay runs every op twice, untraced then traced, from the same
   starting state; the ratio of the two times is trace.overhead. *)

type op = { tag : string; file : string; expect : int list; kind : string; names : string list }

let read_ops path =
  lines path
  |> List.map (fun l ->
         match words l with
         | tag :: file :: expect :: rest ->
             let expect = List.map int_of_string (String.split_on_char ',' expect) in
             let kind, names =
               match rest with k :: ns -> (k, ns) | [] -> ("", [])
             in
             { tag; file; expect; kind; names }
         | _ -> failwith ("bad op line: " ^ l))

let holds_ok holds e = (if holds then 0 else 1) = e

let get_ok what = function Ok v -> v | Error _ -> failwith what

(* Run [untraced op] then [traced op] for every op and return the summed
   time of each (ns); then, traced but outside both timings, [probe] the
   traced op's result. *)
let twice ops ~untraced ~traced ~probe =
  let time on f op =
    Trace.enable on;
    let t = Tel.now_ns () in
    let r = f op in
    let dt = Tel.now_ns () - t in
    (r, dt)
  in
  let u, t =
    List.fold_left
      (fun (u, t) op ->
        let _, du = time false untraced op in
        let r, dt = time true traced op in
        probe op r;
        Trace.enable false;
        (u + du, t + dt))
      (0, 0) ops
  in
  Trace.enable false;
  (u, t)

(* [Lang.parse_string] alone, as a probe: the program only calls it inside
   [Lang.specs_of_string]. *)
let probe_parse text = ignore (Trace.span "lang.parse" (fun () -> Lang.parse_string text))

(* posl-check batch's spec loader ([Manifest.file_loader_typed]: read,
   [Lang.specs_of_string], [Spec.adequate_universe], memoized per file)
   with a span around each of those calls; [texts] collects what it read. *)
let cli_loader texts =
  let cache = Hashtbl.create 4 in
  fun f ->
    match Hashtbl.find_opt cache f with
    | Some v -> v
    | None ->
        let text = Trace.span "cli.read" (fun () -> read_file f) in
        texts := text :: !texts;
        let specs =
          Trace.span "lang.elab" (fun () -> get_ok "elab" (Lang.specs_of_string text))
        in
        let universe =
          Trace.span "core.universe" (fun () -> Spec.adequate_universe ~extra_objects:2 specs)
        in
        let v = Ok (specs, universe) in
        Hashtbl.add cache f v;
        v

(* One posl-check invocation after process start: the public calls
   bin/posl_check.ml makes, in its order, with the output it prints
   rendered into a buffer.  A single query runs as the timed children run
   it, without --json: load, resolve, universe and context, [Job.run], the
   verdict line and, for a compose that holds, the composition itself.  A
   batch runs with --json: manifest, elaboration, [Engine.run_batch], the
   table and stats, then the JSON document written to a file.  Returns the
   spec texts read (for the parse probe), verdicts encoded, and whether
   every verdict met its expectation. *)
let cli_op ~dir ~util ~out_json op =
  let path = Filename.concat dir op.file in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  match op.tag with
  | "single" ->
      Trace.op @@ fun () ->
      let text = Trace.span "cli.read" (fun () -> read_file path) in
      let specs =
        Trace.span "lang.elab" (fun () -> get_ok "elab" (Lang.specs_of_string text))
      in
      let resolved = List.map (fun n -> Option.get (Lang.lookup specs n)) op.names in
      let query = get_ok "query" (Manifest.query ~kind:op.kind resolved) in
      let universe =
        Trace.span "core.universe" (fun () -> Spec.adequate_universe ~extra_objects:2 specs)
      in
      let ctx = Trace.span "tset.ctx" (fun () -> Tset.ctx universe) in
      let v = Trace.span ("job." ^ op.kind) (fun () -> Job.run ctx ~depth:6 query) in
      let holds = Verdict.to_bool v in
      Trace.span "cli.print" (fun () ->
          Format.fprintf ppf "%s: %s@." (Job.describe query) (Verdict.to_string v);
          (match (query, holds) with
          | Job.Compose { left; right }, true -> (
              match Trace.span "core.compose_build" (fun () -> Compose.compose left right) with
              | Ok comp -> Format.fprintf ppf "@.%a@." Spec.pp comp
              | Error _ -> ())
          | _ -> ());
          if not holds then
            Format.fprintf ppf "check failed: %s@." (Verdict.to_string v));
      let st = Prs_cache.stats (Tset.prs_cache ctx) in
      util := (st.Prs_cache.hits, st.Prs_cache.misses, 0.) :: !util;
      ([ text ], 0, holds_ok holds (List.hd op.expect))
  | _ ->
      Trace.op @@ fun () ->
      let text = Trace.span "cli.read" (fun () -> read_file path) in
      let texts = ref [] in
      let entries =
        Trace.span "engine.manifest_entries" (fun () ->
            get_ok "entries"
              (Manifest.entries_typed ~path ~dir:(Filename.dirname path) ~default_depth:6 text))
      in
      let requests =
        Trace.span "engine.manifest_elaborate" (fun () ->
            get_ok "elaborate" (Manifest.elaborate_typed ~path ~load:(cli_loader texts) entries))
      in
      let results, stats =
        Trace.span "engine.run_batch" (fun () -> Engine.run_batch ~domains:1 requests)
      in
      let failed =
        List.length (List.filter (fun (r : Engine.result) -> not (Verdict.to_bool r.Engine.verdict)) results)
      in
      Trace.span "cli.print" (fun () ->
          let table = Report.create [ "#"; "query"; "verdict"; "plan"; "cached"; "ms" ] in
          List.iteri
            (fun i (r : Engine.result) ->
              Report.add_row table
                [
                  string_of_int (i + 1);
                  r.Engine.request.Engine.label;
                  Verdict.to_string r.Engine.verdict;
                  (match r.Engine.verdict.Verdict.provenance.Verdict.procedure with
                  | Some (Verdict.Derived { rule; _ }) -> rule
                  | Some _ | None -> "");
                  (if r.Engine.from_store then "store" else if r.Engine.cached then "hit" else "");
                  Printf.sprintf "%.1f" r.Engine.ms;
                ])
            results;
          Report.print ~out:ppf table;
          Format.fprintf ppf "@.%a@." Engine.pp_stats stats;
          Format.fprintf ppf "%s@." (Json.to_string (Wire.json_of_stats stats ~failed)));
      let doc =
        Trace.span "verdict.encode" (fun () ->
            Json.to_string
              (Json.Obj
                 [
                   ("stats", Wire.json_of_stats stats ~failed);
                   ("results", Json.List (List.map Wire.json_of_result results));
                 ]))
      in
      Trace.span "cli.write" (fun () -> write_file out_json (doc ^ "\n"));
      util := (stats.Engine.dfa_cache_hits, stats.Engine.dfa_compiles, stats.Engine.utilization)
              :: !util;
      ( !texts,
        List.length results,
        List.length results = List.length op.expect
        && List.for_all2
             (fun (r : Engine.result) e -> holds_ok (Verdict.to_bool r.Engine.verdict) e)
             results op.expect )

let sum_by f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let replay_cli ~dir ~ops_path ~out_json =
  let ops = read_ops ops_path in
  let failed = ref 0 and util = ref [] and ignored = ref [] and encoded = ref 0 in
  let c0 = counters () and g0 = gc_probe () in
  let u, t =
    twice ops
      ~untraced:(cli_op ~dir ~util:ignored ~out_json)
      ~traced:(cli_op ~dir ~util ~out_json)
      ~probe:(fun _ (texts, n, ok) ->
        List.iter probe_parse texts;
        encoded := !encoded + n;
        if not ok then incr failed)
  in
  let c1 = counters () and g1 = gc_probe () in
  let n = List.length ops in
  (* counters cover both passes: halve by counting 2n ops *)
  let hits = sum_by (fun (h, _, _) -> float_of_int h) !util
  and misses = sum_by (fun (_, m, _) -> float_of_int m) !util in
  let batches = List.filter (fun (_, _, u) -> u > 0.) !util in
  print_endline
    (json
       (O
          ([
             ("ops", I n);
             ("failed", I !failed);
             ("covered_ms", F (Trace.covered_ms ()));
             ("lang.parse_ms", F (Trace.per_op_ms [ "lang.parse" ]));
             ( "lang.elab_ms",
               F (Trace.per_op_ms [ "lang.elab" ] -. Trace.per_op_ms [ "lang.parse" ]) );
             ("engine.manifest_entries_ms", F (Trace.per_call_ms [ "engine.manifest_entries" ]));
             ("engine.manifest_elaborate_ms", F (Trace.per_call_ms [ "engine.manifest_elaborate" ]));
             ("core.universe_ms", F (Trace.per_call_ms [ "core.universe" ]));
             ("core.refine_ms", F (Trace.per_call_ms [ "job.refine" ]));
             ("core.compose_ms", F (Trace.per_call_ms [ "job.compose"; "job.proper" ]));
             ("bmc.deadlock_ms", F (Trace.per_call_ms [ "job.deadlock" ]));
             ( "engine.job_ms",
               F (Trace.per_call_ms
                    [ "job.refine"; "job.compose"; "job.proper"; "job.deadlock"; "job.equal"; "engine.job" ]) );
             ( "verdict.encode_us",
               F (if !encoded = 0 then 0.
                  else 1000. *. Trace.total_ms [ "verdict.encode" ] /. float_of_int !encoded) );
             ("tset.dfa_hit_ratio", F (ratio hits misses));
             ( "engine.utilization",
               F (if batches = [] then 0.
                  else sum_by (fun (_, _, u) -> u) batches /. float_of_int (List.length batches)) );
             ("trace.overhead", F (float_of_int t /. float_of_int (max 1 u)));
             ("stages", O (Trace.stages ()));
           ]
          @ counter_metrics c0 c1 ~ops:(2 * n)
          @ gc_metrics g0 g1 ~ops:(2 * n))))

(* One spec_text submission, after the connection: the public calls
   Serve makes for it, in its order — [Frame.read], [Wire.parse_request],
   the spec-text memo ([Lang.specs_of_string] and [Spec.adequate_universe]
   on a miss), name resolution, [Engine.answer] (the scheduler hand-off
   between the two is the real server's; the traced run reads it from the
   server's own queue-wait metric), the response document and
   [Frame.write]. *)
type serve_state = {
  session : Engine.session;
  counters : Counters.t;
  memo : (int * string, Spec.t list * Posl_ident.Universe.t) Hashtbl.t;
  store : Store.t;
  ic : in_channel;  (* the request frames, in op order *)
  oc : out_channel;  (* replies go to /dev/null *)
}

let serve_op st =
  Trace.op @@ fun () ->
  let payload = Trace.span "serve.frame" (fun () -> get_ok "frame" (Frame.read st.ic)) in
  let submit =
    match Trace.span "serve.decode" (fun () -> Wire.parse_request payload) with
    | Ok (Wire.Submit s) -> s
    | _ -> failwith "decode"
  in
  let text = Option.get submit.Wire.spec_text in
  let fresh = ref false in
  let specs, universe =
    Trace.span "serve.load_text" (fun () ->
        match Hashtbl.find_opt st.memo (2, text) with
        | Some l -> l
        | None ->
            fresh := true;
            let specs =
              Trace.span "lang.elab" (fun () -> get_ok "elab" (Lang.specs_of_string text))
            in
            let universe =
              Trace.span "core.universe" (fun () -> Spec.adequate_universe ~extra_objects:2 specs)
            in
            Hashtbl.replace st.memo (2, text) (specs, universe);
            (specs, universe))
  in
  let request =
    Trace.span "serve.resolve" (fun () ->
        let q = List.hd submit.Wire.queries in
        let resolved =
          List.map (fun n -> get_ok "resolve" (Manifest.resolve_name specs ~file:"inline" n)) q.Wire.names
        in
        let query = get_ok "query" (Manifest.query ~kind:q.Wire.kind resolved) in
        let label = Printf.sprintf "inline: %s" (Job.describe query) in
        Engine.request ~label ~depth:6 ~universe query)
  in
  let r = Trace.span "engine.answer" (fun () -> Engine.answer st.session st.counters request) in
  let holds = Verdict.to_bool r.Engine.verdict in
  let reply =
    Trace.span "serve.encode" (fun () ->
        Json.to_string
          (Json.Obj
             [
               ("ok", Json.Bool true);
               ("op", Json.Str "submit");
               ("trace_id", Json.Str "replay");
               ("jobs", Json.Int 1);
               ("failed", Json.Int (if holds then 0 else 1));
               ("expired", Json.Int 0);
               ("results", Json.List [ Wire.json_of_result r ]);
             ]))
  in
  Trace.span "serve.frame" (fun () -> Frame.write st.oc reply);
  (text, !fresh, request, holds)

(* Probes beside a traced op: the calls [Engine.answer] makes on its
   cache and store path, timed one by one on the same query and state. *)
let serve_probe st (text, fresh, (request : Engine.request), _) =
  if fresh then probe_parse text;
  let universe = request.Engine.universe and q = request.Engine.query in
  (match Trace.span "engine.digest" (fun () -> Digest.query ~universe ~depth:6 q) with
  | Some d ->
      ignore (Trace.span "engine.cache_find" (fun () -> Cache.find (Engine.session_cache st.session) d))
  | None -> ());
  match Digest.query_base ~universe q with
  | Some b -> ignore (Trace.span "store.find" (fun () -> Store.find st.store ~digest:b ~depth:6))
  | None -> ()

let replay_serve ~dir ~ops_path ~store_dir =
  let ops = read_ops ops_path in
  let frames = Filename.concat (Filename.dirname ops_path) "frames" in
  Out_channel.with_open_bin frames (fun oc ->
      List.iter
        (fun op ->
          let text = read_file (Filename.concat dir op.file) in
          Frame.write oc
            (Json.to_string
               (Wire.request_json
                  (Wire.Submit
                     (Wire.submission
                        ~queries:[ { Wire.kind = op.kind; names = op.names } ]
                        (`Spec_text text))))))
        ops);
  let warm = List.filter (fun o -> o.tag = "warm") ops
  and timed = List.filter (fun o -> o.tag = "q") ops in
  let failed = ref 0 in
  let fresh_state tag =
    let d = Printf.sprintf "%s.%s" store_dir tag in
    let store = Store.open_ d in
    let st =
      { session = Engine.session ~store (); counters = Counters.create ();
        memo = Hashtbl.create 64; store; ic = open_in_bin frames;
        oc = open_out_bin "/dev/null" }
    in
    List.iter (fun _ -> ignore (serve_op st)) warm;
    (st, d)
  in
  let st_u, _ = fresh_state "u" in
  let st_t, dir_t = fresh_state "t" in
  let c0 = counters () and g0 = gc_probe () in
  let u, t =
    twice timed
      ~untraced:(fun _ -> serve_op st_u)
      ~traced:(fun _ -> serve_op st_t)
      ~probe:(fun op ((_, _, _, holds) as r) ->
        serve_probe st_t r;
        if not (holds_ok holds (List.hd op.expect)) then incr failed)
  in
  let c1 = counters () and g1 = gc_probe () in
  List.iter (fun st -> Store.close st.store; close_in st.ic; close_out st.oc) [ st_u; st_t ];
  (* store.open_ms: reopen the traced run's log, rebuilding its index *)
  let t0 = Tel.now_ns () in
  Store.close (Store.open_ dir_t);
  let open_ms = float_of_int (Tel.now_ns () - t0) /. 1e6 in
  let n = List.length timed in
  let dfa = Engine.dfa_cache_stats (Engine.session_dfa_cache st_t.session) in
  print_endline
    (json
       (O
          ([
             ("ops", I n);
             ("failed", I !failed);
             ("covered_ms", F (Trace.covered_ms ()));
             ("lang.parse_ms", F (Trace.per_op_ms [ "lang.parse" ]));
             ("lang.elab_ms", F (Trace.per_op_ms [ "lang.elab" ] -. Trace.per_op_ms [ "lang.parse" ]));
             ("core.universe_ms", F (Trace.per_call_ms [ "core.universe" ]));
             ( "tset.dfa_hit_ratio",
               F (ratio (float_of_int dfa.Prs_cache.hits) (float_of_int dfa.Prs_cache.misses)) );
             ("engine.digest_us", F (1000. *. Trace.per_call_ms [ "engine.digest" ]));
             ("engine.cache_find_us", F (1000. *. Trace.per_call_ms [ "engine.cache_find" ]));
             ("engine.job_ms", F (Trace.per_call_ms [ "engine.job" ]));
             ("verdict.encode_us", F (1000. *. Trace.per_call_ms [ "serve.encode" ]));
             ("store.open_ms", F open_ms);
             ("store.find_us", F (1000. *. Trace.per_call_ms [ "store.find" ]));
             ("store.add_us", F (1000. *. Trace.per_call_ms [ "store.append" ]));
             ("serve.frame_us", F (1000. *. Trace.per_call_ms [ "serve.frame" ]));
             ("serve.decode_us", F (1000. *. Trace.per_call_ms [ "serve.decode" ]));
             ("serve.encode_us", F (1000. *. Trace.per_call_ms [ "serve.encode" ]));
             ("trace.overhead", F (float_of_int t /. float_of_int (max 1 u)));
             ("stages", O (Trace.stages ()));
           ]
          @ counter_metrics c0 c1 ~ops:(2 * n)
          @ gc_metrics g0 g1 ~ops:(2 * n))))

(* --- watch-edit -------------------------------------------------------- *)

let watch ~dir ~rounds ~traced =
  let path = Filename.concat dir in
  let expect =
    lines (path "watch.expect")
    |> List.map (fun l ->
           match List.map int_of_string (words l) with
           | fam :: e -> (fam, Array.of_list e)
           | [] -> failwith "watch.expect")
  in
  let schedule =
    lines (path "watch.schedule")
    |> List.map (fun l ->
           match words l with
           | [ f; k ] -> (int_of_string f, k = "t")
           | _ -> failwith "watch.schedule")
    |> Array.of_list
  in
  (* The schedule's trace/vocab pattern repeats every [period] rounds. *)
  let period =
    let rec first i =
      if i >= Array.length schedule || not (snd schedule.(i)) then i else first (i + 1)
    in
    1 + first 0
  in
  let nfam = 1 + List.fold_left (fun m (f, _) -> max m f) 0 expect in
  let spec i = path (Printf.sprintf "specs/f%04d.oun" i) in
  (* variants.(f).(t).(v): file f with trace bit t and vocab bit v *)
  let variants =
    Array.init nfam (fun i ->
        Array.init 2 (fun t ->
            Array.init 2 (fun v ->
                read_file (path (Printf.sprintf "variants/f%04d.oun.%d.%d" i t v)))))
  in
  let trace_bit = Array.make nfam 0 and vocab = Array.make nfam 0 in
  let matches w =
    let vs = Watch.verdicts w in
    List.length vs = List.length expect
    && List.for_all2
         (fun (_, v) (fam, e) ->
           let state = (2 * trace_bit.(fam)) + vocab.(fam) in
           (if Verdict.to_bool v then 0 else 1) = e.(state))
         vs expect
  in
  let manifest = path "watch.manifest" in
  let session = Engine.session () in
  let ref_sample, ref_close = reference_child () in
  let cpu0 = cpu () in
  let w = Watch.create ~domains:1 ~session manifest in
  let cold = Watch.poll w in
  let setup_cpu_ms = (cpu () -. cpu0) *. 1000. in
  let cold_ok = cold <> None && matches w in
  let idle =
    List.init 5 (fun _ ->
        let t = now () in
        let r = Watch.poll w in
        if r <> None then failwith "idle poll saw a change";
        (now () -. t) *. 1000.)
    |> List.sort compare
  in
  let lat = ref [] and lat_cpu = ref [] and refs = ref [] and failed = ref 0 in
  let busy = ref 0. in
  let invalidated = ref 0 and reused = ref 0 and util = ref [] in
  (* One edit round: toggle one file's trace edit or vocab edit, then poll
     once.  Clearing the verdict cache first (untimed) makes every edit new
     content, as in a real session, rather than an undo the cache would
     answer. *)
  let round k =
    let f, trace_edit = schedule.(k mod Array.length schedule) in
    if trace_edit then trace_bit.(f) <- 1 - trace_bit.(f)
    else vocab.(f) <- 1 - vocab.(f);
    Cache.clear (Engine.session_cache session);
    let tw = now () in
    write_file (spec f) variants.(f).(trace_bit.(f)).(vocab.(f));
    let t = now () and c = cpu () in
    let report = Trace.op ~name:"watch.poll" (fun () -> Watch.poll w) in
    let t' = now () and c' = cpu () in
    busy := !busy +. (t' -. tw);
    (match report with
    | Some r when r.Watch.diagnostics = [] && matches w ->
        invalidated := !invalidated + r.Watch.invalidated;
        reused := !reused + r.Watch.reused;
        Option.iter (fun st -> util := st.Engine.utilization :: !util) r.Watch.stats;
        lat := ((t' -. t) *. 1000.) :: !lat;
        lat_cpu := ((c' -. c) *. 1000.) :: !lat_cpu
    | Some _ | None ->
        incr failed;
        lat := -1. :: !lat;
        lat_cpu := -1. :: !lat_cpu);
    f
  in
  (* Probes, outside the timed poll: the public calls the round made for
     the edited file, timed one by one (the watcher itself is opaque). *)
  let probe f =
    let file = spec f in
    let text = read_file file in
    ignore (Trace.span "lang.parse" (fun () -> Lang.parse_string text));
    let loaded =
      Trace.span "lang.elab" (fun () ->
          get_ok "elab" (Manifest.specs_of_source ~extra_objects:2 ~file text))
    in
    let mtext = read_file manifest in
    let entries =
      Trace.span "engine.manifest_entries" (fun () ->
          get_ok "entries" (Manifest.entries_typed ~path:manifest ~dir ~default_depth:6 mtext))
    in
    let load _ = Ok loaded in
    List.iter
      (fun (e : Manifest.entry) ->
        if e.Manifest.file = file then
          let r =
            Trace.span "engine.manifest_elaborate" (fun () ->
                get_ok "request" (Manifest.request_of_entry ~path:manifest ~load e))
          in
          match
            Trace.span "engine.digest" (fun () ->
                Digest.query ~universe:r.Engine.universe ~depth:6 r.Engine.query)
          with
          | Some d -> ignore (Trace.span "engine.cache_find" (fun () -> Cache.find (Engine.session_cache session) d))
          | None -> ())
      entries
  in
  (* A fixed number of rounds: the watcher's state grows every round (its
     contexts never evict), so round cost drifts with the round count and
     a time-bounded run would hand a faster program more, costlier rounds.
     Traced runs alternate blocks of untraced and traced rounds, so both
     halves see equally warm state and the same edit mix (a block is one
     period of the schedule's trace/vocab pattern); their ratio is
     trace.overhead. *)
  let c0 = counters () and g0 = gc_probe () in
  let plain = ref 0. and plain_n = ref 0 in
  for k = 0 to rounds - 1 do
    let on = traced && (k / period) land 1 = 1 in
    Trace.enable on;
    let b = !busy in
    let f = round k in
    refs := ref_sample () :: !refs;
    if on then probe f
    else begin
      plain := !plain +. (!busy -. b);
      incr plain_n
    end
  done;
  Trace.enable false;
  ref_close ();
  let c1 = counters () and g1 = gc_probe () in
  let extra =
    if not traced then []
    else
      let traced_n = rounds - !plain_n in
      let traced_s = !busy -. !plain in
      [
        ("watch.idle_poll_ms", F (List.nth idle 2));
        ("watch.round_ms", F (Trace.per_call_ms [ "watch.poll" ]));
        ("watch.invalidated", F (float_of_int !invalidated /. float_of_int (max 1 rounds)));
        ("watch.reuse_ratio", F (ratio (float_of_int !reused) (float_of_int !invalidated)));
        ("lang.parse_ms", F (Trace.per_call_ms [ "lang.parse" ]));
        ("lang.elab_ms", F (Trace.per_call_ms [ "lang.elab" ] -. Trace.per_call_ms [ "lang.parse" ]));
        ("engine.manifest_entries_ms", F (Trace.per_call_ms [ "engine.manifest_entries" ]));
        ("engine.manifest_elaborate_ms", F (Trace.per_call_ms [ "engine.manifest_elaborate" ]));
        ("engine.digest_us", F (1000. *. Trace.per_call_ms [ "engine.digest" ]));
        ("engine.cache_find_us", F (1000. *. Trace.per_call_ms [ "engine.cache_find" ]));
        ("engine.job_ms", F (Trace.per_call_ms [ "engine.job" ]));
        ( "engine.utilization",
          F (if !util = [] then 0. else sum_by Fun.id !util /. float_of_int (List.length !util)) );
        ( "tset.dfa_hit_ratio",
          let d = Engine.dfa_cache_stats (Engine.session_dfa_cache session) in
          F (ratio (float_of_int d.Prs_cache.hits) (float_of_int d.Prs_cache.misses)) );
        ("trace.coverage", F (Trace.coverage ()));
        ( "trace.overhead",
          F (traced_s /. float_of_int (max 1 traced_n) /. (!plain /. float_of_int (max 1 !plain_n))) );
        ("stages", O (Trace.stages ()));
      ]
      @ counter_metrics c0 c1 ~ops:rounds
      @ gc_metrics g0 g1 ~ops:rounds
  in
  print_endline
    (json
       (O
          ([
             ("setup_cpu_ms", F setup_cpu_ms);
             ("cold_failed", I (if cold_ok then 0 else 1));
             ("failed", I !failed);
             ("rounds", I rounds);
             ("latency_ms", L (List.rev !lat));
             ("cpu_ms", L (List.rev !lat_cpu));
             ("ref_ms", L (List.rev !refs));
             ("idle_poll_ms", F (List.nth idle 2));
             ("invalidated", I !invalidated);
             ("reused", I !reused);
             ("queries", I (List.length expect));
             ("files", I nfam);
             ("vmhwm_kb", I (vm_hwm_kb ()));
           ]
          @ extra)))

(* --- command line ------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let req k =
    match opt k args with
    | Some v -> v
    | None -> prerr_endline ("pbdrive: missing " ^ k); exit 2
  in
  match args with
  | "watch" :: _ ->
      watch ~dir:(req "--dir") ~rounds:(int_of_string (req "--rounds"))
        ~traced:(List.mem "--trace" args)
  | "replay-cli" :: _ ->
      replay_cli ~dir:(req "--dir") ~ops_path:(req "--ops") ~out_json:(req "--json")
  | "reference" :: _ -> serve_reference ()
  | "replay-serve" :: _ ->
      replay_serve ~dir:(req "--dir") ~ops_path:(req "--ops") ~store_dir:(req "--store")
  | _ ->
      prerr_endline "usage: pbdrive (watch|replay-cli|replay-serve|reference) ...";
      exit 2
