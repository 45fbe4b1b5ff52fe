(* The incremental re-verification loop.  Change detection is content
   hashing, gated by a stat stamp that only a settled file keeps (see
   [look]).  One rule decides what a round re-runs: a query re-runs iff
   its dependency token moved or it has no standing verdict.  The token
   (see [slot_token]) determines the query's [Digest.query_base], so
   "reused" is always sound. *)

module Manifest = Posl_engine.Manifest
module Engine = Posl_engine.Engine
module Plan = Posl_engine.Plan
module Job = Posl_engine.Job
module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
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
    "round %d: %d invalidated, %d reused, %d flip%s, %s%d/%d failing \
     (%.1f ms)@."
    r.round r.invalidated r.reused (List.length r.flips)
    (if List.length r.flips = 1 then "" else "s")
    (if r.errored > 0 then Printf.sprintf "%d errored, " r.errored else "")
    r.failing r.total r.elapsed_ms

(* --- watcher state ----------------------------------------------------- *)

module Smap = Map.Make (String)

(* What a rewrite, a put-back mtime (it moves the ctime) or a rename
   over the file (it moves the inode) changes in a file's metadata. *)
type stamp = {
  dev : int;
  ino : int;
  size : int;
  mtime : float;
  ctime : float;
}

type file_state = {
  path : string;
  mutable stamp : stamp option;
      (* of the stat before the last read, once settled ([look]) *)
  mutable fdigest : string;  (* content MD5 of the last read, "" = unread *)
  mutable good : (Spec.t list * Universe.t) option;  (* last good parse *)
  mutable last_error : Manifest.input_error option;
  mutable gen : int;  (* moved whenever [ukey] or [keys] moves *)
  mutable ukey : string;  (* universe digest of [good] *)
  mutable keys : string option Smap.t;
      (* spec name -> [Digest.spec_key] of its first spec in [good] (the
         one [Lang.lookup] resolves); [None] = opaque body *)
}

type slot = {
  mutable gen : int;  (* file generation [token] was last confirmed at *)
  token : string option;  (* dependency token, [None] = never reuse *)
  request : (Engine.request, Manifest.input_error) result;
      (* [Error]: the query does not elaborate *)
  mutable standing : (string * Verdict.t) option;  (* label, verdict *)
}

(* A query as the manifest spells it, and its slot: one per slot key,
   shared by the query's repeats and kept across manifest edits. *)
type query = { key : string; mutable slot : slot option }

(* A manifest line, resolved once per manifest parse. *)
type entry = {
  line : Manifest.entry;
  fs : file_state;  (* of its [use] target *)
  query : query;
  at : int;  (* its query's number among the manifest's distinct ones *)
}

type t = {
  manifest : string;
  default_depth : int;
  extra_objects : int;
  plan : Plan.mode;
  domains : int option;
  session : Engine.session;
  mutable round : int;
  mutable mstamp : stamp option;  (* the manifest's, as [file_state]'s *)
  mutable mdigest : string;  (* manifest content MD5, "" = unread *)
  mutable entries : entry list;
  mutable distinct : int;  (* distinct queries in [entries] *)
  mutable watched : file_state list;  (* the [use] targets, by path *)
  files : (string, file_state) Hashtbl.t;
  queries : (string, query) Hashtbl.t;  (* slot key -> query *)
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
    mstamp = None;
    mdigest = "";
    entries = [];
    distinct = 0;
    watched = [];
    files = Hashtbl.create 4;
    queries = Hashtbl.create 16;
  }

let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)
let unreadable = "<unreadable>"

(* [path]'s content hash and content, when the hash moved since [seen]
   ([unreadable] hashes an unreadable file, so a standing breakage is
   reported once). *)
let read_changed path ~seen =
  match In_channel.with_open_bin path In_channel.input_all with
  | text ->
      let d = md5 text in
      if String.equal d seen then None else Some (d, Ok text)
  | exception Sys_error m ->
      if String.equal seen unreadable then None
      else
        Some
          ( unreadable,
            Error
              {
                Manifest.input_file = path;
                input_offset = None;
                input_message = m;
              } )

(* A file's timestamps may hide a write made within their granularity
   of the last: one kernel tick (a few ms) where they carry sub-second
   digits, two seconds on FAT, and a second on HFS+ or ext3, which
   store whole seconds.  [settle] is longer than either. *)
let settle (st : Unix.stats) =
  if Float.is_integer st.st_mtime && Float.is_integer st.st_ctime then 3.
  else 0.05

(* The stamp to keep for a stat taken at or after [now], before a read:
   none while either time is within [settle] of [now], since a write
   after the read could then leave both where they are; the next poll
   reads such a file again.  This assumes the file system's clock
   follows the watcher's to within [settle]. *)
let stamp_of ~now (st : Unix.stats) =
  let settle = settle st in
  if now -. st.st_mtime > settle && now -. st.st_ctime > settle then
    Some
      {
        dev = st.st_dev;
        ino = st.st_ino;
        size = st.st_size;
        mtime = st.st_mtime;
        ctime = st.st_ctime;
      }
  else None

let unmoved stamp (st : Unix.stats) =
  match stamp with
  | Some s ->
      s.ino = st.st_ino && s.dev = st.st_dev && s.size = st.st_size
      && Float.equal s.mtime st.st_mtime
      && Float.equal s.ctime st.st_ctime
  | None -> false

(* One file's look at a poll: the stamp to keep, and [read_changed]'s
   answer unless the kept stamp stands (the stat precedes the read, so
   a write between the two is seen at the next poll).  [hashed] counts
   the reads. *)
let look ~now ~hashed stamp path ~seen =
  match Unix.stat path with
  | st when unmoved stamp st -> (stamp, None)
  | st ->
      incr hashed;
      (stamp_of ~now st, read_changed path ~seen)
  | exception Unix.Unix_error _ ->
      incr hashed;
      (None, read_changed path ~seen)

(* A slot's identity across rounds: the query as the manifest spells
   it, plus its depth (an edited [depth] line is a different
   obligation).  Stable under re-elaboration, independent of it. *)
let slot_key (e : Manifest.entry) =
  Printf.sprintf "%s:%s %s@%d" e.Manifest.file e.Manifest.kind
    (String.concat " " e.Manifest.names)
    e.Manifest.depth

(* Parsed manifest lines with their file states (made on first sight)
   and queries, the repeats of a query sharing its number. *)
let resolve t es =
  let numbers = Hashtbl.create 64 in
  let entries =
    List.map
      (fun (line : Manifest.entry) ->
        let path = line.Manifest.file and key = slot_key line in
        let fs =
          match Hashtbl.find_opt t.files path with
          | Some fs -> fs
          | None ->
              let fs =
                {
                  path;
                  stamp = None;
                  fdigest = "";
                  good = None;
                  last_error = None;
                  gen = 0;
                  ukey = "";
                  keys = Smap.empty;
                }
              in
              Hashtbl.add t.files path fs;
              fs
        in
        let query =
          match Hashtbl.find_opt t.queries key with
          | Some q -> q
          | None ->
              let q = { key; slot = None } in
              Hashtbl.add t.queries key q;
              q
        in
        let at =
          match Hashtbl.find_opt numbers key with
          | Some at -> at
          | None ->
              let at = Hashtbl.length numbers in
              Hashtbl.add numbers key at;
              at
        in
        { line; fs; query; at })
      es
  in
  (entries, Hashtbl.length numbers)

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

(* Name -> [spec_key]; a duplicated name keeps its first spec, the one
   name resolution picks.  Taken through [Engine.spec_key], so the
   round's re-runs over this parse find their keys memoised. *)
let key_map ~universe specs =
  List.fold_left
    (fun m s ->
      let name = Spec.name s in
      if Smap.mem name m then m
      else Smap.add name (Engine.spec_key ~universe s) m)
    Smap.empty specs

(* An opaque body has no key, so it never compares equal: its edits
   would otherwise be invisible. *)
let same_keys =
  Smap.equal (fun a b ->
      match (a, b) with Some a, Some b -> String.equal a b | _ -> false)

(* Refresh the manifest and every watched spec file.  Returns whether
   anything a token can see moved — the manifest's slot keys or some
   file's generation — and the diagnostics that surfaced.  A file is
   read only when its stamp moved ([look]) and re-parsed only when its
   content hash moved, and its generation moves only when its universe
   or a spec's key did, so a standing breakage is reported once and a
   comment-only edit moves nothing.  Spanned as [watch.refresh], with
   the number of files read as [hashed]: on an idle round this poll is
   all the work. *)
let refresh t =
  Telemetry.with_span "watch.refresh" @@ fun () ->
  let diags = ref [] and moved = ref false in
  let now = Unix.gettimeofday () and hashed = ref 0 in
  let mstamp, changed =
    look ~now ~hashed t.mstamp t.manifest ~seen:t.mdigest
  in
  t.mstamp <- mstamp;
  (match changed with
  | None -> ()
  | Some (d, content) -> (
      t.mdigest <- d;
      match
        Result.bind content
          (Manifest.entries_typed ~path:t.manifest
             ~dir:(Filename.dirname t.manifest)
             ~default_depth:t.default_depth)
      with
      | Ok es ->
          let entries, distinct = resolve t es in
          if
            not
              (List.equal
                 (fun a b -> String.equal a.query.key b.query.key)
                 entries t.entries)
          then moved := true;
          t.entries <- entries;
          t.distinct <- distinct;
          t.watched <-
            List.sort_uniq
              (fun a b -> String.compare a.path b.path)
              (List.map (fun en -> en.fs) entries)
      | Error e -> diags := e :: !diags (* previous entries stand *)));
  List.iter
    (fun fs ->
      let stamp, changed = look ~now ~hashed fs.stamp fs.path ~seen:fs.fdigest in
      fs.stamp <- stamp;
      match changed with
      | None -> ()
      | Some (d, content) -> (
          let path = fs.path in
          fs.fdigest <- d;
          match
            Result.bind content
              (Manifest.specs_of_source ~extra_objects:t.extra_objects
                 ~file:path)
          with
          | Ok (specs, universe) ->
              fs.last_error <- None;
              let ukey = Job.universe_digest universe in
              let keys = key_map ~universe specs in
              if
                Option.is_none fs.good
                || (not (String.equal ukey fs.ukey))
                || not (same_keys keys fs.keys)
              then begin
                fs.good <- Some (specs, universe);
                fs.ukey <- ukey;
                fs.keys <- keys;
                fs.gen <- fs.gen + 1;
                moved := true
              end
          | Error e ->
              (* unreadable or half-saved: report, keep the last good
                 parse (and with it every standing verdict) *)
              fs.last_error <- Some e;
              diags := e :: !diags))
    t.watched;
  Telemetry.set_attrs [ ("hashed", string_of_int !hashed) ];
  (!moved, List.rev !diags)

(* An entry's dependency token: its file's universe digest plus the
   [spec_key] of every composition part it names.  Together with the
   slot key (which holds the query kind) that is everything
   [Digest.query_base] serializes — a composite's body is fixed by its
   parts — so an equal token means the same question.  [None] (never
   reuse) when the file has no good parse yet (no keys), a part does
   not resolve, or a part's body is opaque.  The keys reflect the last
   {e good} parse, so a broken file leaves tokens standing, in step
   with the loader serving that same parse. *)
let slot_token fs (e : Manifest.entry) =
  List.concat_map Manifest.composition_parts e.Manifest.names
  |> List.sort_uniq String.compare
  |> List.fold_left
       (fun token name ->
         match (token, Smap.find_opt name fs.keys) with
         | Some token, Some (Some k) -> Some (token ^ "|" ^ k)
         | _ -> None)
       (Some fs.ukey)

(* The one reuse rule.  A slot at its file's current generation stands;
   otherwise its token is rebuilt, and an equal token confirms the slot
   at the new generation.  Anything else rebuilds the request, carrying
   the standing verdict over for flip detection.  Returns the slot and
   whether it was rebuilt; [round] stores a rebuilt slot. *)
let confirm t load { line = e; fs; query; _ } =
  match query.slot with
  | Some slot when slot.gen = fs.gen -> (slot, false)
  | stored -> (
      let token = slot_token fs e in
      match stored with
      | Some slot
        when Option.is_some token && Option.equal String.equal slot.token token
        ->
          slot.gen <- fs.gen;
          (slot, false)
      | _ ->
          ( {
              gen = fs.gen;
              token;
              request = Manifest.request_of_entry ~path:t.manifest ~load e;
              standing = Option.bind stored (fun s -> s.standing);
            },
            true ))

let round t diags =
  let t0 = Telemetry.now_ns () in
  t.round <- t.round + 1;
  Metrics.incr rounds_total;
  Telemetry.with_span "watch.round"
    ~attrs:[ ("round", string_of_int t.round) ]
  @@ fun () ->
  (* Partition: run what was rebuilt; a slot with no request is errored
     and keeps its standing verdict.  A query that does not elaborate
     over its file's good parse (an unknown name, a token that does not
     compose) is a diagnostic when its slot is rebuilt, as a broken
     file is one when its content changes; a file that has no good
     parse was reported as such. *)
  let load = loader t in
  (* per distinct query: the slot its first line confirmed or rebuilt
     this round, which its repeats share *)
  let outcomes = Array.make t.distinct None and to_run = ref [] in
  let reused = ref 0 and errored = ref 0 and diags = ref (List.rev diags) in
  let slots =
    List.map
      (fun en ->
        let slot, fresh =
          match outcomes.(en.at) with
          | Some outcome -> outcome
          | None ->
              let outcome = confirm t load en in
              outcomes.(en.at) <- Some outcome;
              outcome
        in
        (match slot.request with
        | Error err ->
            incr errored;
            if
              fresh && Option.is_some en.fs.good
              && not (List.mem err !diags)
            then diags := err :: !diags
        | Ok req when fresh -> to_run := (slot, req) :: !to_run
        | Ok _ -> incr reused);
        slot)
      t.entries
  in
  let to_run = List.rev !to_run in
  let results, stats =
    match to_run with
    | [] -> ([], None)
    | _ ->
        let rs, stats =
          Engine.run_jobs ?domains:t.domains ~plan:t.plan t.session
            (List.map snd to_run)
        in
        (* The monitors this round resolved served its parse alone: a
           later edit of the file brings a new parse, with new monitors.
           Letting go of them now, not when that edit supersedes the
           parse, keeps watch-edit's major heap a fifth smaller
           (EXPERIMENTS, "Stat-gated polls"). *)
        List.iter
          (fun (_, (req : Engine.request)) ->
            Tset.drop_nodes (Engine.session_ctx t.session req.Engine.universe))
          to_run;
        (rs, Some stats)
  in
  let flips = ref [] in
  List.iter2
    (fun (slot, (req : Engine.request)) (r : Engine.result) ->
      let label = req.Engine.label and v = r.Engine.verdict in
      (match slot.standing with
      | Some (_, old) when Verdict.changed old v ->
          flips := { label; previous = old; verdict = v } :: !flips
      | Some _ | None -> ());
      slot.standing <- Some (label, v))
    to_run results;
  (* Stored only now that their verdicts landed, so a stored slot with a
     request always has one: if the engine raised, the next round
     rebuilds and re-runs them. *)
  List.iter
    (fun en ->
      match outcomes.(en.at) with
      | Some (slot, true) -> en.query.slot <- Some slot
      | Some (_, false) | None -> ())
    t.entries;
  let flips = List.rev !flips in
  let failing =
    List.fold_left
      (fun acc slot ->
        match slot.standing with
        | Some (_, v) when not (Verdict.to_bool v) -> acc + 1
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
    diagnostics = List.rev !diags;
    failing;
    total = List.length slots;
    elapsed_ms;
    stats;
  }

let poll t =
  let moved, diags = refresh t in
  if t.round = 0 || moved || diags <> [] then Some (round t diags) else None

let verdicts t =
  List.filter_map
    (fun en -> Option.bind en.query.slot (fun s -> s.standing))
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
