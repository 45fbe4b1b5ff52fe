(* The refinement-session journal: store-style CRC-framed log, one
   record per edit round.  Single-writer by design (one session per
   directory), so unlike the verdict store there is no inter-process
   lock — durability comes from whole-frame O_APPEND writes and
   torn-tail truncation on open. *)

module Framing = Posl_store.Framing
module J = Posl_verdict.Verdict.Json

type round = {
  round : int;
  failing : int;
  flips : int;
  invalidated : int;
  reused : int;
  elapsed_ms : float;
}

let pp_round ppf r =
  Format.fprintf ppf
    "@[round %d: %d failing, %d flip%s (%d invalidated, %d reused, %.1f ms)@]"
    r.round r.failing r.flips
    (if r.flips = 1 then "" else "s")
    r.invalidated r.reused r.elapsed_ms

type signal = Converging | Diverging | Steady | Mixed | Unknown

let signal ~window rounds =
  let failing = List.map (fun r -> r.failing) rounds in
  let n = List.length failing in
  let tail =
    if n <= window then failing
    else List.filteri (fun i _ -> i >= n - window) failing
  in
  let rec steps acc = function
    | a :: (b :: _ as rest) -> steps (compare b a :: acc) rest
    | _ -> acc
  in
  match steps [] tail with
  | [] -> Unknown
  | ss ->
      if List.for_all (fun s -> s < 0) ss then Converging
      else if List.for_all (fun s -> s > 0) ss then Diverging
      else if List.for_all (fun s -> s = 0) ss then Steady
      else Mixed

let pp_signal ppf s =
  Format.pp_print_string ppf
    (match s with
    | Converging -> "converging"
    | Diverging -> "diverging"
    | Steady -> "steady"
    | Mixed -> "mixed"
    | Unknown -> "unknown")

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt
let header = "posl-session v1\n"
let header_len = String.length header
let log_name = "session.log"

type t = {
  path : string;
  mutable fd : Unix.file_descr option;
  mutable recorded : round list;  (* newest first *)
}

(* --- record encoding -------------------------------------------------- *)

let json_of_round r =
  J.Obj
    [
      ("round", J.Int r.round);
      ("failing", J.Int r.failing);
      ("flips", J.Int r.flips);
      ("invalidated", J.Int r.invalidated);
      ("reused", J.Int r.reused);
      ("elapsed_ms", J.Float r.elapsed_ms);
    ]

let payload_of_round r = "\001" ^ J.to_string (json_of_round r)

let round_of_payload payload =
  let n = String.length payload in
  if n = 0 then Result.Error "empty record"
  else if payload.[0] <> '\001' then
    Result.Error
      (Printf.sprintf "unsupported record version %d" (Char.code payload.[0]))
  else
    match J.of_string (String.sub payload 1 (n - 1)) with
    | Result.Error e -> Result.Error ("json: " ^ e)
    | Ok (J.Obj fields) -> (
        let int k =
          match List.assoc_opt k fields with
          | Some (J.Int i) -> Some i
          | _ -> None
        in
        let num k =
          match List.assoc_opt k fields with
          | Some (J.Float f) -> Some f
          | Some (J.Int i) -> Some (float_of_int i)
          | _ -> None
        in
        match
          ( int "round",
            int "failing",
            int "flips",
            int "invalidated",
            int "reused",
            num "elapsed_ms" )
        with
        | Some round, Some failing, Some flips, Some invalidated, Some reused,
          Some elapsed_ms ->
            Ok { round; failing; flips; invalidated; reused; elapsed_ms }
        | _ -> Result.Error "round record missing fields")
    | Ok _ -> Result.Error "record payload is not an object"

(* --- open / append ---------------------------------------------------- *)

let rec mkdir_p d =
  if (not (Sys.file_exists d)) && not (String.equal d (Filename.dirname d))
  then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ dir =
  mkdir_p dir;
  let path = Filename.concat dir log_name in
  if not (Sys.file_exists path) then
    Out_channel.with_open_gen
      [ Open_wronly; Open_creat; Open_binary ]
      0o644 path
      (fun oc -> Out_channel.output_string oc header);
  let content =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> err "cannot read %s: %s" path e
  in
  if
    String.length content < header_len
    || not (String.equal (String.sub content 0 header_len) header)
  then err "not a posl session journal: %s" path;
  let s = Framing.scan ~start:header_len content in
  let recorded =
    List.fold_left
      (fun acc -> function
        | Framing.Damaged _ -> acc  (* skipped, never fatal *)
        | Framing.Record { payload; _ } -> (
            match round_of_payload payload with
            | Ok r -> r :: acc
            | Result.Error _ -> acc))
      [] s.Framing.items
  in
  if s.Framing.torn > 0 then Unix.truncate path s.Framing.keep;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  { path; fd = Some fd; recorded }

let rounds t = List.rev t.recorded

let next_round t =
  match t.recorded with [] -> 1 | last :: _ -> last.round + 1

let append t r =
  match t.fd with
  | None -> err "session journal %s is closed" t.path
  | Some fd ->
      let b = Framing.frame (payload_of_round r) in
      let n = Unix.write fd b 0 (Bytes.length b) in
      if n <> Bytes.length b then err "short write to %s" t.path;
      t.recorded <- r :: t.recorded

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      Unix.close fd
