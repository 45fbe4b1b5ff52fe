(** Content-addressed keys for check jobs: MD5 over a canonical
    serialization of (query kind, spec bodies, universe), then the
    depth.

    The serialization is length-prefixed per field, so concatenated
    fields can never alias across field boundaries, and every
    constructor is tagged.  Verdicts are a pure function of the
    serialized data: the checkers consult specifications only through
    their object sets, alphabets and trace-set monitors, all of which
    are serialized below (with [Forall_obj] bodies expanded at every
    universe member of their sort — the only objects a monitor over the
    sampled alphabet can touch). *)

module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
module Counting = Posl_tset.Counting
module Regex = Posl_regex.Regex
module Eventset = Posl_sets.Eventset
module Oset = Posl_sets.Oset
open Posl_ident

type t = string

exception Opaque
(** A [Pointwise] trace set: an arbitrary OCaml function, no content
    address. *)

let field buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let fieldf buf fmt = Format.kasprintf (field buf) fmt

let rec ser_tset buf ~(universe : Universe.t) (t : Tset.t) =
  match t with
  | Tset.All -> field buf "all"
  | Tset.Prs r ->
      field buf "prs";
      fieldf buf "%a" Regex.pp r
  | Tset.Counting c ->
      (* The proposition names classes by index only, so the class
         table (what each count counts) is part of the key.  The tag
         differs from the proposition-only form's, so no key already in
         a persistent store can equal a key written this way. *)
      field buf "counting";
      let classes = Counting.classes c in
      field buf (string_of_int (Array.length classes));
      Array.iter
        (fun es -> fieldf buf "%a" Eventset.pp (Eventset.normalise es))
        classes;
      fieldf buf "%a" Counting.pp c
  | Tset.Pointwise _ -> raise Opaque
  | Tset.Forall_obj (sort, body) ->
      field buf "forall";
      fieldf buf "%a" Oset.pp sort;
      List.iter
        (fun o ->
          if Oset.mem o sort then begin
            fieldf buf "%a" Oid.pp o;
            ser_tset buf ~universe (body o)
          end)
        (Universe.objects universe)
  | Tset.Conj ts ->
      field buf "conj";
      field buf (string_of_int (List.length ts));
      List.iter (ser_tset buf ~universe) ts
  | Tset.Restrict (es, t') ->
      field buf "restrict";
      fieldf buf "%a" Eventset.pp (Eventset.normalise es);
      ser_tset buf ~universe t'
  | Tset.Product (parts, vis) ->
      field buf "product";
      fieldf buf "%a" Eventset.pp (Eventset.normalise vis);
      field buf (string_of_int (List.length parts));
      List.iter
        (fun (p : Tset.part) ->
          fieldf buf "%a" Eventset.pp (Eventset.normalise p.Tset.part_alpha);
          ser_tset buf ~universe p.Tset.part_tset)
        parts

(* The name is included deliberately: verdict evidence embeds spec
   names (equality-witness sides, improper-context labels), so two
   same-bodied but differently-named specs must not share a cached
   verdict verbatim. *)
let ser_spec buf ~universe s =
  field buf (Spec.name s);
  fieldf buf "%a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Oid.pp)
    (Oid.Set.elements (Spec.objs s));
  fieldf buf "%a" Eventset.pp (Eventset.normalise (Spec.alpha s));
  ser_tset buf ~universe (Spec.tset s)

(* A key's pieces, each already length-prefixed: the universe's field
   and each specification's fields, so [of_keys] can assemble a key
   from pieces a session memoised and write exactly the bytes one pass
   over the query would. *)
let universe_key universe =
  let buf = Buffer.create 128 in
  fieldf buf "%a" Universe.pp universe;
  Buffer.contents buf

let spec_key ~universe s =
  let buf = Buffer.create 256 in
  match ser_spec buf ~universe s with
  | () -> Some (Buffer.contents buf)
  | exception Opaque -> None

let of_keys ~kind ~universe_key spec_keys =
  if List.mem None spec_keys then None
  else begin
    let buf = Buffer.create 1024 in
    field buf kind;
    Buffer.add_string buf universe_key;
    List.iter (Option.iter (Buffer.add_string buf)) spec_keys;
    Some (Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf)))
  end

(* The persistent store's key leaves the depth out: a depth-6 bounded
   verdict is a perfectly good answer to the same query at depth 4
   (and an exact one at any depth), so keying by depth would shatter
   reusable records.  The depth the verdict was computed at travels in
   the store record instead, where [Store.find]'s reuse rule can see
   it. *)
let query_base ~universe q =
  of_keys ~kind:(Job.kind q) ~universe_key:(universe_key universe)
    (List.map (spec_key ~universe) (Job.specs q))

(* The in-memory cache does key by depth.  A hex MD5 never contains
   '@', so the suffix cannot alias another base. *)
let at_depth ~depth base = base ^ "@" ^ string_of_int depth

let query ~universe ~depth q = Option.map (at_depth ~depth) (query_base ~universe q)
