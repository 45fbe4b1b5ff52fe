(* The perf-trajectory regression report: committed BENCH_*.json
   snapshots (baseline) vs a freshly measured set (live), with typed
   threshold verdicts.

   Every baseline file declares each field's kind (its "kinds" list,
   parallel to "rows"); the kinds decide everything here and nothing is
   inferred from field names.  Rows are matched inside a campaign by
   their key fields, then each field is checked by its kind:

   - claim: a baseline [true] must stay [true], whatever the slack;
   - timing: live <= [slack] x baseline, only when the baseline is
     >= 1 ms (smaller timings are noise; the claims cover them);
   - rate: live >= baseline / [slack];
   - work: live <= baseline, no slack (the counts repeat exactly);
   - key and info fields are never checked.

   A checked field that is missing from the matched live row fails its
   check.  The same comparison renders as markdown (for humans and CI
   job summaries) and JSON (for tooling). *)

module Json = Posl_json.Json

type kind = Key | Claim | Timing | Rate | Work | Info

let kind_names =
  [ (Key, "key"); (Claim, "claim"); (Timing, "timing"); (Rate, "rate");
    (Work, "work"); (Info, "info") ]

let string_of_kind k = List.assoc k kind_names

let kind_of_string s =
  List.find_map (fun (k, n) -> if String.equal n s then Some k else None)
    kind_names

type check = {
  key : string;  (* row identity inside the campaign, "route=speedup" *)
  field : string;
  kind : kind;
  base : float;  (* claims: 1. = true *)
  live : float option;  (* None: the field is missing from the live row *)
  ok : bool;
}

type status = Pass | Regressed | Missing_live

type campaign = {
  name : string;
  title : string;
  status : status;
  checks : check list;
  unmatched_baseline : string list;  (* row keys with no live partner *)
  unmatched_live : string list;
}

type t = {
  baseline_dir : string;
  live_dir : string;
  slack : float;
  campaigns : campaign list;
  runtime : (string * float) list;  (* live metrics snapshot, optional *)
  ok : bool;
}

(* --- the campaign file ----------------------------------------------- *)

let document ~name ~title rows =
  let fields f row = Json.Obj (List.map f row) in
  Json.Obj
    [
      ("campaign", Json.Str name);
      ("title", Json.Str title);
      ("rows", Json.List (List.map (fields (fun (k, _, v) -> (k, v))) rows));
      ( "kinds",
        Json.List
          (List.map
             (fields (fun (k, kind, _) -> (k, Json.Str (string_of_kind kind))))
             rows) );
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let objects = function
  | Some (Json.List l) ->
      Some (List.filter_map (function Json.Obj f -> Some f | _ -> None) l)
  | _ -> None

(* Title and rows, each row's fields in file order. *)
let load_campaign path =
  match read_file path with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.of_string text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok (Json.Obj fields) ->
          let title =
            match List.assoc_opt "title" fields with
            | Some (Json.Str s) -> s
            | _ -> ""
          in
          Ok
            ( title,
              Option.value ~default:[] (objects (List.assoc_opt "rows" fields)),
              fields )
      | Ok _ -> Error (Printf.sprintf "%s: not a JSON object" path))

(* [f] over [l], stopping at the first error. *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: rest ->
      Result.bind (f x) (fun y -> Result.map (List.cons y) (map_ok f rest))

(* Each baseline row with its declared kinds.  Every field of every row
   must have one, or the file is refused: it predates declared kinds,
   or was edited by hand. *)
let load_baseline path =
  Result.bind (load_campaign path) @@ fun (title, rows, fields) ->
  let err fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match objects (List.assoc_opt "kinds" fields) with
  | Some kinds when List.length kinds = List.length rows ->
      let kind_of i declared (field, _) =
        match List.assoc_opt field declared with
        | Some (Json.Str s) when Option.is_some (kind_of_string s) ->
            Ok (field, Option.get (kind_of_string s))
        | _ -> err "row %d: field %s has no known kind" (i + 1) field
      in
      List.combine rows kinds
      |> List.mapi (fun i (row, declared) ->
             Result.map (fun ks -> (row, ks)) (map_ok (kind_of i declared) row))
      |> map_ok Fun.id
      |> Result.map (fun rows -> (title, rows))
  | _ -> err "no \"kinds\" list beside its rows; re-snapshot this baseline"

(* --- row identity and checks ----------------------------------------- *)

let scalar_string = function
  | Json.Str s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%g" f
  | Json.Bool b -> string_of_bool b
  | Json.Null | Json.Obj _ | Json.List _ -> ""

(* The campaign's identity fields: every field some baseline row
   declares [Key], in first-seen order. *)
let key_fields base_rows =
  List.fold_left
    (fun keys (_, kinds) ->
      keys
      @ List.filter_map
          (fun (f, k) ->
            if k = Key && not (List.mem f keys) then Some f else None)
          kinds)
    [] base_rows

let row_key ~keys fields =
  let parts =
    List.filter_map
      (fun name ->
        match List.assoc_opt name fields with
        | Some v when scalar_string v <> "" ->
            Some (Printf.sprintf "%s=%s" name (scalar_string v))
        | _ -> None)
      keys
  in
  match parts with [] -> "(row)" | _ -> String.concat " " parts

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

(* Timings under a millisecond in the baseline are measurement noise at
   CI-runner resolution; the campaigns' boolean claims carry those. *)
let min_gated_ms = 1.0

(* A checked baseline field absent from the live row (deleted, renamed,
   or no longer a number) is a failed check: a gate must not vanish
   with its field. *)
let checks_of_row ~slack ~key (base_fields, kinds) live_fields =
  List.filter_map
    (fun (field, bv) ->
      let lv = List.assoc_opt field live_fields in
      let check kind base live ok = Some { key; field; kind; base; live; ok } in
      let gate kind base ok =
        let live = Option.bind lv number in
        check kind base live (match live with Some l -> ok l | None -> false)
      in
      match (List.assoc field kinds, bv, number bv) with
      | Claim, Json.Bool true, _ ->
          let live =
            Option.map (fun v -> if v = Json.Bool true then 1. else 0.) lv
          in
          check Claim 1. live (live = Some 1.)
      | Timing, _, Some base when base >= min_gated_ms ->
          gate Timing base (fun l -> l <= slack *. base)
      | Rate, _, Some base when base > 0. ->
          gate Rate base (fun l -> l >= base /. slack)
      | Work, _, Some base -> gate Work base (fun l -> l <= base)
      | _ -> None)
    base_fields

let compare_campaign ~slack ~name ~title base_rows live_rows =
  let keys = key_fields base_rows in
  let live = List.map (fun r -> (row_key ~keys r, r)) live_rows in
  let seen = Hashtbl.create 16 in
  let checks, unmatched_baseline =
    List.fold_left
      (fun (checks, unmatched) ((base_fields, _) as base) ->
        let key = row_key ~keys base_fields in
        match List.assoc_opt key live with
        | Some live_fields ->
            Hashtbl.replace seen key ();
            (checks @ checks_of_row ~slack ~key base live_fields, unmatched)
        | None -> (checks, key :: unmatched))
      ([], []) base_rows
  in
  let unmatched_live =
    List.filter_map
      (fun (key, _) -> if Hashtbl.mem seen key then None else Some key)
      live
  in
  let status =
    if List.for_all (fun (c : check) -> c.ok) checks && unmatched_baseline = []
    then Pass
    else Regressed
  in
  { name; title; status; checks;
    unmatched_baseline = List.rev unmatched_baseline; unmatched_live }

(* --- live metrics snapshot ------------------------------------------ *)

(* Unlabelled sample lines of a Prometheus text exposition, name ->
   value.  Histogram buckets carry labels and are skipped; _sum/_count
   lines come through, which is what the report wants. *)
let parse_metrics text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' || String.contains line '{' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i -> (
               let name = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt (String.trim v) with
               | Some f -> Some (name, f)
               | None -> None))

(* --- entry point ----------------------------------------------------- *)

let campaign_number name =
  (* "P10" -> 10; unparseable names sort last, alphabetically *)
  if String.length name > 1 && name.[0] = 'P' then
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some n -> n
    | None -> max_int
  else max_int

let ends_with ~suffix s =
  let sl = String.length suffix and l = String.length s in
  l >= sl && String.sub s (l - sl) sl = suffix

let discover_campaigns dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun f ->
             if
               String.length f > 11
               && String.sub f 0 6 = "BENCH_"
               && ends_with ~suffix:".json" f
             then Some (String.sub f 6 (String.length f - 11))
             else None)
      |> List.sort (fun a b ->
             compare (campaign_number a, a) (campaign_number b, b))

let run ?(slack = 2.0) ?metrics_file ~baseline_dir ~live_dir () =
  let names = discover_campaigns baseline_dir in
  let file dir name = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
  let against_live name (title, base_rows) =
    match load_campaign (file live_dir name) with
    | Error _ ->
        let keys = key_fields base_rows in
        { name; title; status = Missing_live; checks = [];
          unmatched_baseline =
            List.map (fun (fields, _) -> row_key ~keys fields) base_rows;
          unmatched_live = [] }
    | Ok (_, live_rows, _) ->
        compare_campaign ~slack ~name ~title base_rows live_rows
  in
  if names = [] then
    Error
      (Printf.sprintf "no BENCH_*.json campaigns found under %s" baseline_dir)
  else
    map_ok
      (fun name ->
        Result.map (against_live name) (load_baseline (file baseline_dir name)))
      names
    |> Result.map @@ fun campaigns ->
       let runtime =
         match metrics_file with
         | None -> []
         | Some path -> (
             match read_file path with
             | exception Sys_error _ -> []
             | text -> parse_metrics text)
       in
       {
         baseline_dir;
         live_dir;
         slack;
         campaigns;
         runtime;
         ok = List.for_all (fun c -> c.status = Pass) campaigns;
       }

(* --- rendering ------------------------------------------------------- *)

let status_string = function
  | Pass -> "ok"
  | Regressed -> "regressed"
  | Missing_live -> "missing"

let json_of_check c =
  Json.Obj
    [
      ("row", Json.Str c.key);
      ("field", Json.Str c.field);
      ("kind", Json.Str (string_of_kind c.kind));
      ("baseline", Json.Float c.base);
      ("live", match c.live with Some l -> Json.Float l | None -> Json.Null);
      ("ok", Json.Bool c.ok);
    ]

let to_json t =
  Json.Obj
    [
      ("baseline", Json.Str t.baseline_dir);
      ("live", Json.Str t.live_dir);
      ("slack", Json.Float t.slack);
      ("ok", Json.Bool t.ok);
      ( "campaigns",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("campaign", Json.Str c.name);
                   ("title", Json.Str c.title);
                   ("status", Json.Str (status_string c.status));
                   ("checks", Json.List (List.map json_of_check c.checks));
                   ( "unmatched_baseline",
                     Json.List
                       (List.map (fun k -> Json.Str k) c.unmatched_baseline) );
                   ( "unmatched_live",
                     Json.List (List.map (fun k -> Json.Str k) c.unmatched_live)
                   );
                 ])
             t.campaigns) );
      ( "runtime",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.runtime) );
    ]

let quantity c =
  match (c.kind, c.live) with
  | Claim, None -> "true -> missing"
  | _, None -> Printf.sprintf "%.3g -> missing" c.base
  | Claim, Some l -> if l = 1. then "true -> true" else "true -> FALSE"
  | _, Some l ->
      Printf.sprintf "%.3g -> %.3g (x%.2f)" c.base l
        (if c.base = 0. then 0. else l /. c.base)

let to_markdown t =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# posl-check report — perf trajectory\n\n";
  pf "baseline `%s` vs live `%s`, slack x%g — **%s**\n\n" t.baseline_dir
    t.live_dir t.slack
    (if t.ok then "ok" else "REGRESSED");
  List.iter
    (fun c ->
      pf "## %s — %s\n\n" c.name c.title;
      (match c.status with
      | Pass -> pf "status: ok (%d checks)\n\n" (List.length c.checks)
      | Regressed ->
          pf "status: **REGRESSED** (%d/%d checks failed)\n\n"
            (List.length (List.filter (fun (ck : check) -> not ck.ok) c.checks)
             + List.length c.unmatched_baseline)
            (List.length c.checks + List.length c.unmatched_baseline)
      | Missing_live -> pf "status: **missing live campaign**\n\n");
      if c.checks <> [] then begin
        pf "| row | field | kind | baseline → live | gate |\n";
        pf "|---|---|---|---|---|\n";
        List.iter
          (fun ck ->
            pf "| %s | %s | %s | %s | %s |\n" ck.key ck.field
              (string_of_kind ck.kind) (quantity ck)
              (if ck.ok then "ok" else "**FAIL**"))
          c.checks;
        pf "\n"
      end;
      List.iter
        (fun k -> pf "- row only in baseline: `%s`\n" k)
        c.unmatched_baseline;
      List.iter (fun k -> pf "- row only in live: `%s`\n" k) c.unmatched_live;
      if c.unmatched_baseline <> [] || c.unmatched_live <> [] then pf "\n")
    t.campaigns;
  if t.runtime <> [] then begin
    pf "## runtime snapshot\n\n";
    pf "| metric | value |\n|---|---|\n";
    List.iter (fun (k, v) -> pf "| %s | %g |\n" k v) t.runtime;
    pf "\n"
  end;
  Buffer.contents b
