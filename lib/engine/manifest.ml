(* Query manifests, split into a pure text parser ({!entries}) and an
   elaboration pass over a pluggable spec loader ({!elaborate}) so that
   the CLI, the resident server and the load generator all share one
   grammar without sharing a filesystem. *)

module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Lang = Posl_lang.Lang
module Ast = Posl_lang.Ast
open Posl_ident

type input_error = {
  input_file : string;
  input_offset : int option;
  input_message : string;
}

let input_error_message e = e.input_message

let input_error_detail e =
  match e.input_offset with
  | Some off -> Printf.sprintf "%s (byte %d of %s)" e.input_message off e.input_file
  | None -> e.input_message

(* Byte offset of a 1-based line/column position in [text], clamped to
   the text length (parser positions can point one past a line end). *)
let offset_of_pos text (p : Ast.pos) =
  let len = String.length text in
  let rec start_of line i =
    if line <= 1 then i
    else
      match String.index_from_opt text i '\n' with
      | Some j -> start_of (line - 1) (j + 1)
      | None -> i
  in
  min (start_of p.Ast.line 0 + max 0 (p.Ast.col - 1)) len

(* Byte offset of the start of 1-based line [n] in [text]. *)
let offset_of_line text n = offset_of_pos text { Ast.line = n; col = 1 }

type entry = {
  line : int;
  file : string;
  depth : int;
  kind : string;
  names : string list;
}

let arity = function
  | "refine" | "compose" | "deadlock" | "equal" -> Some 2
  | "proper" -> Some 3
  | _ -> None

let query ~kind specs =
  match (kind, specs) with
  | "refine", [ refined; abstract ] -> Ok (Job.refine ~refined ~abstract)
  | "compose", [ left; right ] -> Ok (Job.compose ~left ~right)
  | "proper", [ refined; abstract; context ] ->
      Ok (Job.proper ~refined ~abstract ~context)
  | "deadlock", [ left; right ] -> Ok (Job.deadlock ~left ~right)
  | "equal", [ left; right ] -> Ok (Job.equal ~left ~right)
  | kind, specs -> (
      match arity kind with
      | None -> Error (Printf.sprintf "unknown query kind: %s" kind)
      | Some n ->
          Error
            (Printf.sprintf "%s expects %d specification name%s, got %d" kind n
               (if n = 1 then "" else "s")
               (List.length specs)))

(* '#' and '//' comments, without pulling in a string library. *)
let strip line =
  let cut_at i = String.sub line 0 i in
  let line =
    match String.index_opt line '#' with Some i -> cut_at i | None -> line
  in
  let rec slash i =
    if i + 1 >= String.length line then line
    else if line.[i] = '/' && line.[i + 1] = '/' then String.sub line 0 i
    else slash (i + 1)
  in
  String.trim (slash 0)

let entries_typed ?(path = "manifest") ?dir ~default_depth text =
  let resolve f =
    match dir with
    | Some d when Filename.is_relative f -> Filename.concat d f
    | _ -> f
  in
  let err lineno msg =
    Error
      {
        input_file = path;
        input_offset = Some (offset_of_line text lineno);
        input_message = Printf.sprintf "%s:%d: %s" path lineno msg;
      }
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno current depth acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let words =
          strip line |> String.split_on_char ' '
          |> List.filter (fun w -> w <> "")
        in
        let with_query kind names =
          match current with
          | None -> err lineno "no 'use FILE' before the first query"
          | Some file ->
              go (lineno + 1) current depth
                ({ line = lineno; file; depth; kind; names } :: acc)
                rest
        in
        match words with
        | [] -> go (lineno + 1) current depth acc rest
        | [ "use"; f ] -> go (lineno + 1) (Some (resolve f)) depth acc rest
        | [ "depth"; n ] -> (
            match int_of_string_opt n with
            | Some d when d >= 0 -> go (lineno + 1) current d acc rest
            | Some _ | None -> err lineno ("bad depth: " ^ n))
        | kind :: names when arity kind <> None ->
            if Some (List.length names) = arity kind then with_query kind names
            else
              err lineno
                (Printf.sprintf "%s expects %d specification name%s" kind
                   (Option.get (arity kind))
                   (if arity kind = Some 1 then "" else "s"))
        | w :: _ -> err lineno ("unknown manifest directive: " ^ w))
  in
  go 1 None default_depth [] lines

type typed_loader = string -> (Spec.t list * Universe.t, input_error) result

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let specs_of_source ~extra_objects ~file text =
  match Lang.specs_of_string text with
  | Ok specs -> Ok (specs, Spec.adequate_universe ~extra_objects specs)
  | Error e ->
      Error
        {
          input_file = file;
          input_offset = Some (offset_of_pos text e.Lang.pos);
          input_message = Format.asprintf "%s: %a" file Lang.pp_error e;
        }

let file_loader_typed ~extra_objects () =
  let cache : (string, (Spec.t list * Universe.t, input_error) result) Hashtbl.t
      =
    Hashtbl.create 4
  in
  fun f ->
    match Hashtbl.find_opt cache f with
    | Some v -> v
    | None ->
        let v =
          match read_file f with
          | exception Sys_error m ->
              Error { input_file = f; input_offset = None; input_message = m }
          | text -> specs_of_source ~extra_objects ~file:f text
        in
        Hashtbl.add cache f v;
        v

let ( let* ) = Result.bind

(* Split a name token on "||": "A||B||C" → ["A"; "B"; "C"]. *)
let composition_parts n =
  let len = String.length n in
  let rec go acc start i =
    if i + 1 >= len then List.rev (String.sub n start (len - start) :: acc)
    else if n.[i] = '|' && n.[i + 1] = '|' then
      go (String.sub n start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0

(* A name token may be a composition: "A||B" denotes A‖B, built at
   elaboration time with [Compose.compose], so the operand reaches the
   engine carrying its [Spec.parts] provenance and composite queries
   over it are eligible for the planner.  Left-associated:
   "A||B||C" = (A‖B)‖C. *)
let resolve_name specs ~file n =
  let lookup1 name =
    if name = "" then
      Error (Printf.sprintf "empty component name in composition %s" n)
    else
      match Lang.lookup specs name with
      | Some s -> Ok s
      | None ->
          Error
            (Printf.sprintf "no spec named %s in %s (file declares: %s)" name
               file
               (String.concat ", " (List.map Spec.name specs)))
  in
  match composition_parts n with
  | [] | [ "" ] -> Error "empty specification name"
  | [ single ] -> lookup1 single
  | first :: rest ->
      let* acc = lookup1 first in
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* s = lookup1 name in
          match Compose.compose acc s with
          | Ok comp -> Ok comp
          | Error f ->
              Error
                (Format.asprintf "%s is not composable: %a" n
                   Compose.pp_composability_failure f))
        (Ok acc) rest

(* Elaborate one entry.  A loader failure keeps the loader's typed
   position (the spec file and offset at fault) while gaining the
   manifest context in its message: ["manifest:line: ..."]. *)
let request_of_entry ?(path = "manifest") ~load (e : entry) =
  let err msg =
    Error
      {
        input_file = path;
        input_offset = None;
        input_message = Printf.sprintf "%s:%d: %s" path e.line msg;
      }
  in
  let* specs, universe =
    match (load : typed_loader) e.file with
    | Ok v -> Ok v
    | Error ie ->
        Error
          {
            ie with
            input_message =
              Printf.sprintf "%s:%d: %s" path e.line ie.input_message;
          }
  in
  let* resolved =
    List.fold_left
      (fun acc n ->
        let* acc = acc in
        match resolve_name specs ~file:e.file n with
        | Ok s -> Ok (s :: acc)
        | Error m -> err m)
      (Ok []) e.names
  in
  let* q =
    match query ~kind:e.kind (List.rev resolved) with
    | Ok q -> Ok q
    | Error m -> err m
  in
  let label =
    Printf.sprintf "%s: %s" (Filename.basename e.file) (Job.describe q)
  in
  Ok (Engine.request ~label ~depth:e.depth ~universe q)

let elaborate_typed ?path ~load entries =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
        let* r = request_of_entry ?path ~load e in
        go (r :: acc) rest
  in
  go [] entries

let requests_of_string_typed ?path ?dir ~default_depth ~load text =
  let* es = entries_typed ?path ?dir ~default_depth text in
  elaborate_typed ?path ~load es

let requests_of_file_typed ~default_depth ~extra_objects path =
  let* text =
    match read_file path with
    | text -> Ok text
    | exception Sys_error m ->
        Error { input_file = path; input_offset = None; input_message = m }
  in
  requests_of_string_typed ~path ~dir:(Filename.dirname path) ~default_depth
    ~load:(file_loader_typed ~extra_objects ())
    text
