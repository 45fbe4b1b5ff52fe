(* The incremental re-verification loop.  Change detection is content
   hashing (portable, mtime-resolution-proof); invalidation is the
   conservative name-level dep map (Deps) backed by a digest-level
   safety net — a query whose depth-independent [Digest.query_base]
   moved is re-run even if the dep map somehow missed it, so "reused"
   is always sound. *)

module Manifest = Posl_engine.Manifest
module Engine = Posl_engine.Engine
module Plan = Posl_engine.Plan
module Qdigest = Posl_engine.Digest
module Job = Posl_engine.Job
module Spec = Posl_core.Spec
module Verdict = Posl_verdict.Verdict
module J = Verdict.Json
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Log = Posl_telemetry.Log
open Posl_ident

let rounds_total =
  Metrics.counter ~help:"Watch rounds run" "posl_watch_rounds_total"

let invalidated_total =
  Metrics.counter ~help:"Queries re-submitted by the watch loop"
    "posl_watch_queries_invalidated_total"

let reused_total =
  Metrics.counter ~help:"Queries answered by standing verdicts"
    "posl_watch_queries_reused_total"

let flips_total =
  Metrics.counter ~help:"Verdict flips reported by the watch loop"
    "posl_watch_flips_total"

type flip = { label : string; previous : Verdict.t; verdict : Verdict.t }

type report = {
  round : int;
  invalidated : int;
  reused : int;
  errored : int;
  flips : flip list;
  diagnostics : Manifest.input_error list;
  failing : int;
  total : int;
  elapsed_ms : float;
  stats : Engine.stats option;
}

let json_of_report r =
  J.Obj
    [
      ("round", J.Int r.round);
      ("queries_invalidated", J.Int r.invalidated);
      ("queries_reused", J.Int r.reused);
      ("queries_errored", J.Int r.errored);
      ( "flips",
        J.List
          (List.map
             (fun f ->
               J.Obj
                 [
                   ("label", J.Str f.label);
                   ("previous", Verdict.to_json f.previous);
                   ("verdict", Verdict.to_json f.verdict);
                 ])
             r.flips) );
      ( "diagnostics",
        J.List
          (List.map
             (fun (e : Manifest.input_error) ->
               J.Obj
                 [
                   ("file", J.Str e.Manifest.input_file);
                   ( "offset",
                     match e.Manifest.input_offset with
                     | Some o -> J.Int o
                     | None -> J.Null );
                   ("message", J.Str e.Manifest.input_message);
                 ])
             r.diagnostics) );
      ("failing", J.Int r.failing);
      ("total", J.Int r.total);
      ("elapsed_ms", J.Float r.elapsed_ms);
    ]

let pp_report ppf r =
  let open Format in
  List.iter
    (fun (e : Manifest.input_error) ->
      fprintf ppf "! %s@." (Manifest.input_error_detail e))
    r.diagnostics;
  List.iter
    (fun f ->
      fprintf ppf "~ %s: %s -> %s@." f.label
        (Verdict.to_string f.previous)
        (Verdict.to_string f.verdict))
    r.flips;
  fprintf ppf
    "round %d: %d invalidated, %d reused, %d flip%s, %d/%d failing (%.1f ms)@."
    r.round r.invalidated r.reused (List.length r.flips)
    (if List.length r.flips = 1 then "" else "s")
    r.failing r.total r.elapsed_ms

(* --- watcher state ----------------------------------------------------- *)

type file_state = {
  mutable fdigest : string;  (* content MD5 of the last read, "" = unread *)
  mutable good : (Spec.t list * Universe.t) option;  (* last good parse *)
  mutable last_error : Manifest.input_error option;
  mutable gen : int;  (* moved whenever [good] changes *)
  mutable ukey : string;  (* universe digest of the last good parse *)
  keys : (string, string option) Hashtbl.t;
      (* spec name -> [Digest.spec_key] under the last good parse;
         [None] = opaque (uncacheable) body *)
}

type slot = {
  entry : Manifest.entry;
  key : string;  (* stable identity across rounds *)
  request : Engine.request option;  (* None: not elaborable this round *)
  base : string option;  (* depth-independent digest, None = uncacheable *)
}

type t = {
  manifest : string;
  default_depth : int;
  extra_objects : int;
  plan : Plan.mode;
  domains : int option;
  session : Engine.session;
  mutable round : int;
  mutable mdigest : string;  (* manifest content MD5, "" = unread *)
  mutable entries : (Manifest.entry * string) list;
      (* with their slot keys, computed once per manifest parse *)
  mutable deps : Deps.t;
  files : (string, file_state) Hashtbl.t;
  last : (string, Verdict.t) Hashtbl.t;  (* slot key -> standing verdict *)
  labels : (string, string) Hashtbl.t;  (* slot key -> batch-table label *)
  bases : (string, string option) Hashtbl.t;  (* slot key -> last base *)
  slots : (string, int * string * slot) Hashtbl.t;
      (* slot key -> (file generation the token was last confirmed at,
         dependency token, slot): only dirty specs are re-elaborated.
         The token is the file's universe digest plus the
         [Digest.spec_key] of every composition part the entry names —
         exactly the per-spec content that feeds [Digest.query_base] —
         so an entry whose parts are all where they were reuses the
         built request and base digest untouched, even when {e other}
         specs in the same file moved.  The token only moves with the
         file's last good parse, so while the file's generation stands
         the slot is reused without building its token. *)
}

let create ?(default_depth = 6) ?(extra_objects = 2) ?(plan = Plan.Auto)
    ?domains ?session manifest =
  {
    manifest;
    default_depth;
    extra_objects;
    plan;
    domains;
    session = (match session with Some s -> s | None -> Engine.session ());
    round = 0;
    mdigest = "";
    entries = [];
    deps = Deps.of_entries [];
    files = Hashtbl.create 4;
    last = Hashtbl.create 16;
    labels = Hashtbl.create 16;
    bases = Hashtbl.create 16;
    slots = Hashtbl.create 16;
  }

let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)
let unreadable = "<unreadable>"

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error m ->
      Error
        {
          Manifest.input_file = path;
          input_offset = None;
          input_message = m;
        }

(* A slot's identity across rounds: the query as the manifest spells
   it, plus its depth (an edited [depth] line is a different
   obligation).  Stable under re-elaboration, independent of it. *)
let slot_key (e : Manifest.entry) =
  Printf.sprintf "%s:%s %s@%d" e.Manifest.file e.Manifest.kind
    (String.concat " " e.Manifest.names)
    e.Manifest.depth

(* Serve elaboration from the watcher's file table: the last {e good}
   parse answers even while the file on disk is broken, which is
   exactly how previous verdicts stay standing through a half-saved
   edit. *)
let loader t : Manifest.typed_loader =
 fun path ->
  match Hashtbl.find_opt t.files path with
  | Some { good = Some v; _ } -> Ok v
  | Some { last_error = Some e; _ } -> Error e
  | Some { last_error = None; _ } | None ->
      Error
        {
          Manifest.input_file = path;
          input_offset = None;
          input_message = path ^ ": not loaded";
        }

(* --- one round --------------------------------------------------------- *)

(* Refresh the manifest and every watched spec file, collecting the
   changed dependency inputs and the diagnostics that surfaced.  A
   file is processed only when its content hash moved, so a standing
   breakage is reported exactly once. *)
let refresh t =
  let diags = ref [] and changed = ref [] in
  (match read_file t.manifest with
  | Error e ->
      if not (String.equal t.mdigest unreadable) then begin
        t.mdigest <- unreadable;
        diags := e :: !diags
      end
  | Ok text ->
      let d = md5 text in
      if not (String.equal d t.mdigest) then begin
        t.mdigest <- d;
        match
          Manifest.entries_typed ~path:t.manifest
            ~dir:(Filename.dirname t.manifest)
            ~default_depth:t.default_depth text
        with
        | Ok es ->
            t.entries <- List.map (fun e -> (e, slot_key e)) es;
            t.deps <- Deps.of_entries es
        | Error e -> diags := e :: !diags (* previous entries stand *)
      end);
  let watched =
    List.sort_uniq String.compare
      (List.map (fun ((e : Manifest.entry), _) -> e.Manifest.file) t.entries)
  in
  List.iter
    (fun path ->
      let fs =
        match Hashtbl.find_opt t.files path with
        | Some fs -> fs
        | None ->
            let fs =
              {
                fdigest = "";
                good = None;
                last_error = None;
                gen = 0;
                ukey = "";
                keys = Hashtbl.create 8;
              }
            in
            Hashtbl.add t.files path fs;
            fs
      in
      match read_file path with
      | Error e ->
          if not (String.equal fs.fdigest unreadable) then begin
            fs.fdigest <- unreadable;
            fs.last_error <- Some e;
            diags := e :: !diags
          end
      | Ok text ->
          let d = md5 text in
          if not (String.equal d fs.fdigest) then begin
            fs.fdigest <- d;
            match
              Manifest.specs_of_source ~extra_objects:t.extra_objects
                ~file:path text
            with
            | Ok (specs, universe) ->
                (match fs.good with
                | Some (old_specs, old_universe) ->
                    changed :=
                      Deps.corpus_changes ~file:path ~old_specs ~old_universe
                        ~specs ~universe
                      @ !changed
                | None -> changed := Deps.In_file path :: !changed);
                fs.good <- Some (specs, universe);
                fs.gen <- fs.gen + 1;
                fs.last_error <- None;
                fs.ukey <- Job.universe_digest universe;
                Hashtbl.reset fs.keys;
                List.iter
                  (fun s ->
                    Hashtbl.replace fs.keys (Spec.name s)
                      (Qdigest.spec_key ~universe s))
                  specs
            | Error e ->
                (* half-saved file: report, keep the last good parse
                   (and with it every standing verdict) *)
                fs.last_error <- Some e;
                diags := e :: !diags
          end)
    watched;
  (!changed, List.rev !diags)

(* An entry's dependency token: its file's universe digest plus the
   [spec_key] of every composition part it names — the exact per-spec
   content [Digest.query_base] serializes.  [None] (never reuse) when
   the file has no good parse yet, a part does not resolve, or a
   part's body is opaque.  The [keys] table reflects the last {e good}
   parse, so a broken file leaves tokens — and with them every cached
   slot — standing, in step with the loader serving that same parse. *)
let slot_token t (e : Manifest.entry) =
  match Hashtbl.find_opt t.files e.Manifest.file with
  | Some fs when not (String.equal fs.ukey "") -> (
      let parts =
        List.concat_map Manifest.composition_parts e.Manifest.names
        |> List.sort_uniq String.compare
      in
      let buf = Buffer.create 64 in
      Buffer.add_string buf fs.ukey;
      try
        List.iter
          (fun name ->
            match Hashtbl.find_opt fs.keys name with
            | Some (Some k) ->
                Buffer.add_char buf '|';
                Buffer.add_string buf k
            | Some None | None -> raise Exit)
          parts;
        Some (Buffer.contents buf)
      with Exit -> None)
  | Some _ | None -> None

(* Elaborate only dirty specs: an entry reuses its built slot while
   its dependency token stands where the slot was built (same parts ⇒
   same composite ⇒ same request and base digest), so an edit
   re-elaborates the queries over the edited spec and nothing else.
   Tokens are only built for entries over a file whose generation moved
   since the slot was last confirmed. *)
let elaborate_slots t =
  let load = loader t in
  List.map
    (fun ((e : Manifest.entry), key) ->
      let gen =
        match Hashtbl.find_opt t.files e.Manifest.file with
        | Some fs -> fs.gen
        | None -> -1
      in
      match Hashtbl.find_opt t.slots key with
      | Some (g, _, slot) when g = gen -> slot
      | stored -> (
          let token = slot_token t e in
          match (stored, token) with
          | Some (_, tok, slot), Some token when String.equal tok token ->
              Hashtbl.replace t.slots key (gen, tok, slot);
              slot
          | _, _ ->
              let slot =
                match Manifest.request_of_entry ~path:t.manifest ~load e with
                | Ok req ->
                    let base =
                      Qdigest.query_base ~universe:req.Engine.universe
                        req.Engine.query
                    in
                    { entry = e; key; request = Some req; base }
                | Error _ -> { entry = e; key; request = None; base = None }
              in
              (match token with
              | Some tok -> Hashtbl.replace t.slots key (gen, tok, slot)
              | None -> Hashtbl.remove t.slots key);
              slot))
    t.entries

let round t changed diags =
  let t0 = Telemetry.now_ns () in
  t.round <- t.round + 1;
  Metrics.incr rounds_total;
  Telemetry.with_span "watch.round"
    ~attrs:[ ("round", string_of_int t.round) ]
  @@ fun () ->
  let slots = elaborate_slots t in
  let invalidated_idx =
    Telemetry.with_span "watch.invalidate" (fun () ->
        Deps.invalidate t.deps ~changed)
  in
  let invalidated = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace invalidated i ()) invalidated_idx;
  (* Partition: run = invalidated by the dep map, never answered
     before, or digest safety net (base moved under us). *)
  let to_run = ref [] and reused = ref 0 and errored = ref 0 in
  List.iteri
    (fun i slot ->
      match slot.request with
      | None -> incr errored
      | Some req ->
          let seen = Hashtbl.mem t.last slot.key in
          let base_moved =
            match Hashtbl.find_opt t.bases slot.key with
            | Some old_base -> old_base <> slot.base
            | None -> true
          in
          if Hashtbl.mem invalidated i || (not seen) || base_moved then
            to_run := (slot, req) :: !to_run
          else incr reused)
    slots;
  let to_run = List.rev !to_run in
  let results, stats =
    match to_run with
    | [] -> ([], None)
    | _ ->
        let rs, stats =
          Engine.run_jobs ?domains:t.domains ~plan:t.plan t.session
            (List.map snd to_run)
        in
        (rs, Some stats)
  in
  let flips = ref [] in
  List.iter2
    (fun (slot, (req : Engine.request)) (r : Engine.result) ->
      let v = r.Engine.verdict in
      (match Hashtbl.find_opt t.last slot.key with
      | Some old when Verdict.changed old v ->
          flips := { label = req.Engine.label; previous = old; verdict = v }
                   :: !flips
      | Some _ | None -> ());
      Hashtbl.replace t.last slot.key v;
      Hashtbl.replace t.labels slot.key req.Engine.label;
      Hashtbl.replace t.bases slot.key slot.base)
    to_run results;
  let flips = List.rev !flips in
  let failing =
    List.fold_left
      (fun acc slot ->
        match Hashtbl.find_opt t.last slot.key with
        | Some v when not (Verdict.to_bool v) -> acc + 1
        | Some _ | None -> acc)
      0 slots
  in
  let n_run = List.length to_run in
  Metrics.add invalidated_total n_run;
  Metrics.add reused_total !reused;
  Metrics.add flips_total (List.length flips);
  Telemetry.set_attrs
    [
      ("invalidated", string_of_int n_run);
      ("reused", string_of_int !reused);
      ("flips", string_of_int (List.length flips));
    ];
  let elapsed_ms = float_of_int (Telemetry.now_ns () - t0) /. 1e6 in
  Log.event
    ~level:(if flips <> [] then Log.Warn else Log.Info)
    ~fields:
      [
        ("round", Log.I t.round);
        ("invalidated", Log.I n_run);
        ("reused", Log.I !reused);
        ("errored", Log.I !errored);
        ("flips", Log.I (List.length flips));
        ("failing", Log.I failing);
        ("ms", Log.F elapsed_ms);
      ]
    "watch.round";
  {
    round = t.round;
    invalidated = n_run;
    reused = !reused;
    errored = !errored;
    flips;
    diagnostics = diags;
    failing;
    total = List.length slots;
    elapsed_ms;
    stats;
  }

let poll t =
  let changed, diags = refresh t in
  let first = t.round = 0 in
  if first || changed <> [] || diags <> [] then Some (round t changed diags)
  else None

let verdicts t =
  List.filter_map
    (fun (_, key) ->
      match (Hashtbl.find_opt t.last key, Hashtbl.find_opt t.labels key) with
      | Some v, Some label -> Some (label, v)
      | _ -> None)
    t.entries

let run ?(poll_ms = 200) ?max_rounds ?(stop = fun () -> false) ~on_round t =
  let rounds_done = ref 0 in
  let finished () =
    stop ()
    || match max_rounds with Some n -> !rounds_done >= n | None -> false
  in
  (* Sleep in small slices so a signal flag set by the CLI is honoured
     within ~50 ms, whatever the poll interval. *)
  let sleep_poll () =
    let slice = 0.05 in
    let remaining = ref (float_of_int poll_ms /. 1000.) in
    while (not (finished ())) && !remaining > 0. do
      let dt = Float.min slice !remaining in
      (try Unix.sleepf dt with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      remaining := !remaining -. dt
    done
  in
  while not (finished ()) do
    (match poll t with
    | Some r ->
        incr rounds_done;
        on_round r
    | None -> ());
    if not (finished ()) then sleep_poll ()
  done;
  !rounds_done
