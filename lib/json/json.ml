(* The project's JSON document AST, printer and parser.  It depends on
   nothing else in posl, so every layer — telemetry's trace and log
   writers included — shares one escaper and one document model. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      (* %.3f keeps millisecond fields readable and never prints the
         nan/inf forms JSON forbids (callers pass finite values). *)
      Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Parsing — the inverse of the serializer above, accepting standard
   JSON (so documents produced by other tools parse too, not only our
   own output).  Recursive descent over the raw bytes; UTF-8 content
   passes through untouched, [\uXXXX] escapes are decoded to UTF-8
   (surrogate pairs included). *)

exception Malformed of string

let malformed pos fmt =
  Format.kasprintf (fun m -> raise (Malformed (Printf.sprintf "at byte %d: %s" pos m))) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> malformed !pos "expected '%c', found '%c'" c c'
    | None -> malformed !pos "expected '%c', found end of input" c
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else malformed !pos "expected %s" word
  in
  (* Encode one Unicode scalar value as UTF-8. *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then malformed !pos "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> malformed !pos "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then malformed !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then malformed !pos "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
               advance ();
               let u = hex4 () in
               let u =
                 if u >= 0xD800 && u <= 0xDBFF then
                   (* high surrogate: a low surrogate must follow *)
                   if
                     !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       malformed !pos "unpaired surrogate";
                     0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                   end
                   else malformed !pos "unpaired surrogate"
                 else u
               in
               add_utf8 buf u
           | c -> malformed !pos "bad escape '\\%c'" c);
          go ()
      | c when Char.code c < 0x20 ->
          malformed !pos "unescaped control character"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> malformed start "bad number %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* an integer literal too wide for [int]: keep the value *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> malformed start "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> malformed !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> malformed !pos "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> malformed !pos "expected ',' or ']'"
          in
          elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> malformed !pos "unexpected character '%c'" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then malformed !pos "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Malformed m -> Error m
