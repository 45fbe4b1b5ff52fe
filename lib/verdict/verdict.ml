(** The typed evidence layer: one structured verdict for every check.

    See the interface for the full story.  Design notes:

    - Evidence is pure data (traces, symbolic sets, names): verdicts
      can be cached, compared as values, and serialized without losing
      the structure the checkers computed.
    - [equal] ignores [elapsed_ms] so a cache hit is equal to a fresh
      computation {e as a value}, not merely after rendering.
    - [certify] is the self-certification hook: producers replay every
      counterexample through the denotational reference semantics
      before a refuted verdict escapes the checker. *)

open Posl_ident
open Posl_sets
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event

(* ------------------------------------------------------------------ *)
(* Confidence                                                          *)
(* ------------------------------------------------------------------ *)

type confidence = Exact | Bounded of int

let meet a b =
  match (a, b) with
  | Exact, Exact -> Exact
  | Exact, Bounded k | Bounded k, Exact -> Bounded k
  | Bounded j, Bounded k -> Bounded (min j k)

let pp_confidence ppf = function
  | Exact -> Format.pp_print_string ppf "exact"
  | Bounded k -> Format.fprintf ppf "bounded(depth=%d)" k

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

type procedure =
  | Symbolic
  | Automata
  | Bounded_search
  | Derived of { rule : string; premises : string list }

let pp_procedure ppf p =
  match p with
  | Symbolic -> Format.pp_print_string ppf "symbolic"
  | Automata -> Format.pp_print_string ppf "automata"
  | Bounded_search -> Format.pp_print_string ppf "bounded"
  | Derived { rule; premises } ->
      Format.fprintf ppf "derived(%s; %d premise%s)" rule
        (List.length premises)
        (if List.length premises = 1 then "" else "s")

let equal_procedure a b =
  match (a, b) with
  | Symbolic, Symbolic | Automata, Automata | Bounded_search, Bounded_search ->
      true
  | Derived { rule = r1; premises = p1 }, Derived { rule = r2; premises = p2 }
    ->
      String.equal r1 r2 && List.equal String.equal p1 p2
  | (Symbolic | Automata | Bounded_search | Derived _), _ -> false

type provenance = {
  procedure : procedure option;
  depth : int option;
  universe_digest : string option;
  elapsed_ms : float;
}

let provenance ?procedure ?depth ?universe_digest ?(elapsed_ms = 0.) () =
  { procedure; depth; universe_digest; elapsed_ms }

let no_provenance = provenance ()

(* ------------------------------------------------------------------ *)
(* Evidence                                                            *)
(* ------------------------------------------------------------------ *)

type side = [ `Left_only | `Right_only ]

type evidence =
  | Trace_escape of { trace : Trace.t; projected : Trace.t }
  | Objects_missing of Oid.Set.t
  | Events_missing of Eventset.t
  | Equality_witness of {
      trace : Trace.t;
      side : side;
      left : string;
      right : string;
    }
  | Deadlock of Trace.t
  | Unanswerable of { obligation : string; trace : Trace.t }
  | Not_composable of {
      offending : Eventset.t;
      side : [ `Left_sees_right_internal | `Right_sees_left_internal ];
    }
  | Improper of {
      alpha0 : Eventset.t;
      offending : Eventset.t;
      context : string;
    }
  | Objects_differ of { left_only : Oid.Set.t; right_only : Oid.Set.t }
  | Alphabets_differ of { left_only : Eventset.t; right_only : Eventset.t }
  | Consistency_witness of Trace.t
  | Law_violation of { law : string; trace : Trace.t }
  | Premise_unmet of string
  | Note of string

let pp_oids ppf os =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Oid.pp)
    (Oid.Set.elements os)

let pp_evidence ppf = function
  | Trace_escape { trace; projected } ->
      if Trace.equal trace projected then
        Format.fprintf ppf "trace escapes the abstract spec: %a" Trace.pp trace
      else
        Format.fprintf ppf
          "trace escapes the abstract spec: %a (projected: %a)" Trace.pp trace
          Trace.pp projected
  | Objects_missing os ->
      Format.fprintf ppf "objects of the abstract spec missing: %a" pp_oids os
  | Events_missing es ->
      Format.fprintf ppf "alphabet of the abstract spec not included: %a"
        Eventset.pp es
  | Equality_witness { trace; side; left; right } ->
      Format.fprintf ppf "trace %a is in T(%s) only" Trace.pp trace
        (match side with `Left_only -> left | `Right_only -> right)
  | Deadlock h -> Format.fprintf ppf "deadlock after %a" Trace.pp h
  | Unanswerable { obligation; trace } ->
      Format.fprintf ppf "obligation %s unanswerable after %a" obligation
        Trace.pp trace
  | Not_composable { offending; side } ->
      Format.fprintf ppf "%s sees the other's internal events: %a"
        (match side with
        | `Left_sees_right_internal -> "left alphabet"
        | `Right_sees_left_internal -> "right alphabet")
        Eventset.pp offending
  | Improper { alpha0; offending; context } ->
      Format.fprintf ppf
        "α₀ = %a meets α(%s); offending events: %a" Eventset.pp alpha0 context
        Eventset.pp offending
  | Objects_differ { left_only; right_only } ->
      Format.fprintf ppf "object sets differ: left-only %a, right-only %a"
        pp_oids left_only pp_oids right_only
  | Alphabets_differ { left_only; right_only } ->
      Format.fprintf ppf "alphabets differ: left-only %a, right-only %a"
        Eventset.pp left_only Eventset.pp right_only
  | Consistency_witness h -> Format.fprintf ppf "witness %a" Trace.pp h
  | Law_violation { law; trace } ->
      Format.fprintf ppf "%s violated on %a" law Trace.pp trace
  | Premise_unmet why -> Format.pp_print_string ppf why
  | Note s -> Format.pp_print_string ppf s

let evidence_traces = function
  | Trace_escape { trace; _ } -> [ trace ]
  | Equality_witness { trace; _ } -> [ trace ]
  | Deadlock h -> [ h ]
  | Unanswerable { trace; _ } -> [ trace ]
  | Consistency_witness h -> [ h ]
  | Law_violation { trace; _ } -> [ trace ]
  | Objects_missing _ | Events_missing _ | Not_composable _ | Improper _
  | Objects_differ _ | Alphabets_differ _ | Premise_unmet _ | Note _ ->
      []

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type status = Holds | Refuted | Vacuous

type t = {
  status : status;
  confidence : confidence option;
  evidence : evidence list;
  provenance : provenance;
}

let holds ?confidence ?(evidence = []) ?(provenance = no_provenance) () =
  { status = Holds; confidence; evidence; provenance }

let refuted ?confidence ?(provenance = no_provenance) evidence =
  { status = Refuted; confidence; evidence; provenance }

let vacuous ?(provenance = no_provenance) why =
  {
    status = Vacuous;
    confidence = None;
    evidence = [ Premise_unmet why ];
    provenance;
  }

let is_holds v = v.status = Holds
let is_refuted v = v.status = Refuted
let is_vacuous v = v.status = Vacuous
let to_bool v = v.status = Holds

(* Refutation dominates, then vacuity; two holding verdicts meet their
   confidences and concatenate their evidence.  The provenance of the
   weaker-confidence side wins, so a bounded sub-check is not
   misreported as exact provenance. *)
let both a b =
  match (a.status, b.status) with
  | Refuted, _ -> a
  | _, Refuted -> b
  | Vacuous, _ -> a
  | _, Vacuous -> b
  | Holds, Holds ->
      let confidence =
        match (a.confidence, b.confidence) with
        | Some ca, Some cb -> Some (meet ca cb)
        | Some c, None | None, Some c -> Some c
        | None, None -> None
      in
      let provenance =
        match (a.confidence, b.confidence) with
        | Some Exact, Some (Bounded _) -> b.provenance
        | _ -> a.provenance
      in
      { status = Holds; confidence; evidence = a.evidence @ b.evidence;
        provenance }

let all = function
  | [] -> holds ~confidence:Exact ()
  | v :: vs -> List.fold_left both v vs

(* Typed, per-kind evidence equality.  Polymorphic (=) is wrong here:
   two semantically equal identifier sets can have different balanced
   tree shapes (e.g. one built by successive [add]s, the other rebuilt
   by [of_list] after a JSON round-trip), and symbolic event sets are
   compared by denotation, not by their rectangle lists. *)
let equal_evidence a b =
  match (a, b) with
  | ( Trace_escape { trace = t1; projected = p1 },
      Trace_escape { trace = t2; projected = p2 } ) ->
      Trace.equal t1 t2 && Trace.equal p1 p2
  | Objects_missing a, Objects_missing b -> Oid.Set.equal a b
  | Events_missing a, Events_missing b -> Eventset.equal a b
  | ( Equality_witness { trace = t1; side = s1; left = l1; right = r1 },
      Equality_witness { trace = t2; side = s2; left = l2; right = r2 } ) ->
      Trace.equal t1 t2 && s1 = s2 && String.equal l1 l2 && String.equal r1 r2
  | Deadlock a, Deadlock b -> Trace.equal a b
  | ( Unanswerable { obligation = o1; trace = t1 },
      Unanswerable { obligation = o2; trace = t2 } ) ->
      String.equal o1 o2 && Trace.equal t1 t2
  | ( Not_composable { offending = e1; side = s1 },
      Not_composable { offending = e2; side = s2 } ) ->
      Eventset.equal e1 e2 && s1 = s2
  | ( Improper { alpha0 = a1; offending = o1; context = c1 },
      Improper { alpha0 = a2; offending = o2; context = c2 } ) ->
      Eventset.equal a1 a2 && Eventset.equal o1 o2 && String.equal c1 c2
  | ( Objects_differ { left_only = l1; right_only = r1 },
      Objects_differ { left_only = l2; right_only = r2 } ) ->
      Oid.Set.equal l1 l2 && Oid.Set.equal r1 r2
  | ( Alphabets_differ { left_only = l1; right_only = r1 },
      Alphabets_differ { left_only = l2; right_only = r2 } ) ->
      Eventset.equal l1 l2 && Eventset.equal r1 r2
  | Consistency_witness a, Consistency_witness b -> Trace.equal a b
  | ( Law_violation { law = l1; trace = t1 },
      Law_violation { law = l2; trace = t2 } ) ->
      String.equal l1 l2 && Trace.equal t1 t2
  | Premise_unmet a, Premise_unmet b -> String.equal a b
  | Note a, Note b -> String.equal a b
  | ( ( Trace_escape _ | Objects_missing _ | Events_missing _
      | Equality_witness _ | Deadlock _ | Unanswerable _ | Not_composable _
      | Improper _ | Objects_differ _ | Alphabets_differ _
      | Consistency_witness _ | Law_violation _ | Premise_unmet _ | Note _ ),
      _ ) ->
      false

let equal_modulo_provenance a b =
  a.status = b.status && a.confidence = b.confidence
  && List.equal equal_evidence a.evidence b.evidence

let changed a b = not (equal_modulo_provenance a b)

let equal a b =
  equal_modulo_provenance a b
  && Option.equal equal_procedure a.provenance.procedure
       b.provenance.procedure
  && a.provenance.depth = b.provenance.depth
  && a.provenance.universe_digest = b.provenance.universe_digest

let witness_traces v = List.concat_map evidence_traces v.evidence

let with_context ?procedure ?depth ?universe_digest ?elapsed_ms v =
  let fill current candidate =
    match current with Some _ -> current | None -> candidate
  in
  let p = v.provenance in
  {
    v with
    provenance =
      {
        procedure = fill p.procedure procedure;
        depth = fill p.depth depth;
        universe_digest = fill p.universe_digest universe_digest;
        elapsed_ms =
          (match elapsed_ms with Some ms -> ms | None -> p.elapsed_ms);
      };
  }

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

exception Uncertified of string

let uncertified fmt = Format.kasprintf (fun s -> raise (Uncertified s)) fmt

let certify ~replay v =
  if v.status = Refuted then
    Posl_telemetry.Telemetry.with_span "verdict.certify"
      ~attrs:
        [ ("kind", "evidence");
          ("items", string_of_int (List.length v.evidence)) ]
      (fun () ->
        List.iter
          (fun e ->
            if not (replay e) then
              uncertified
                "witness failed to replay against the reference semantics: %a"
                pp_evidence e)
          v.evidence);
  v

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_evidence_list ppf = function
  | [] -> ()
  | es ->
      Format.fprintf ppf ": %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           pp_evidence)
        es

let pp ppf v =
  match v.status with
  | Holds ->
      Format.fprintf ppf "holds%a%a"
        (fun ppf -> function
          | None -> ()
          | Some c -> Format.fprintf ppf " [%a]" pp_confidence c)
        v.confidence pp_evidence_list v.evidence
  | Refuted -> Format.fprintf ppf "fails%a" pp_evidence_list v.evidence
  | Vacuous -> (
      match v.evidence with
      | [ Premise_unmet why ] -> Format.fprintf ppf "vacuous (%s)" why
      | es -> Format.fprintf ppf "vacuous%a" pp_evidence_list es)

(* One table cell / log line each: collapse the line breaks the set and
   trace printers introduce. *)
let oneline s =
  let buf = Buffer.create (String.length s) in
  let in_space = ref false in
  String.iter
    (fun c ->
      if c = '\n' || c = '\t' || c = ' ' then in_space := true
      else begin
        if !in_space && Buffer.length buf > 0 then Buffer.add_char buf ' ';
        in_space := false;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

let to_string v = oneline (Format.asprintf "%a" pp v)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Posl_json.Json

let json_str fmt = Format.kasprintf (fun s -> Json.Str (oneline s)) fmt

(* Events, traces and symbolic sets are serialized {e structurally}, so
   the parser below can rebuild the typed evidence exactly: an event is
   an object of identifier names, a symbolic identifier set is its
   finite or co-finite support, an event set is its rectangle list.
   Event sets additionally carry a human-readable [display] rendering,
   ignored on parse. *)

let json_of_event e =
  Json.Obj
    ([
       ("caller", Json.Str (Oid.name (Event.caller e)));
       ("callee", Json.Str (Oid.name (Event.callee e)));
       ("mth", Json.Str (Mth.name (Event.mth e)));
     ]
    @
    match Event.arg e with
    | None -> []
    | Some v -> [ ("arg", Json.Str (Value.name v)) ])

let json_of_trace h = Json.List (List.map json_of_event (Trace.to_list h))

let json_of_oids os =
  Json.List (List.map (fun o -> Json.Str (Oid.name o)) (Oid.Set.elements os))

let json_of_names names = Json.List (List.map (fun n -> Json.Str n) names)

let json_of_oset (os : Oset.t) =
  match os with
  | Oset.Fin s -> Json.Obj [ ("fin", json_of_names (List.map Oid.name (Oid.Set.elements s))) ]
  | Oset.Cofin s ->
      Json.Obj [ ("cofin", json_of_names (List.map Oid.name (Oid.Set.elements s))) ]

let json_of_mset (ms : Mset.t) =
  match ms with
  | Mset.Fin s -> Json.Obj [ ("fin", json_of_names (List.map Mth.name (Mth.Set.elements s))) ]
  | Mset.Cofin s ->
      Json.Obj [ ("cofin", json_of_names (List.map Mth.name (Mth.Set.elements s))) ]

let json_of_vset (vs : Vset.t) =
  match vs with
  | Vset.Fin s ->
      Json.Obj [ ("fin", json_of_names (List.map Value.name (Value.Set.elements s))) ]
  | Vset.Cofin s ->
      Json.Obj [ ("cofin", json_of_names (List.map Value.name (Value.Set.elements s))) ]

let json_of_rect r =
  let args = Rect.args r in
  Json.Obj
    [
      ("callers", json_of_oset (Rect.callers r));
      ("callees", json_of_oset (Rect.callees r));
      ("mths", json_of_mset (Rect.mths r));
      ( "args",
        Json.Obj
          [
            ("none", Json.Bool (Argsel.allow_none args));
            ("values", json_of_vset (Argsel.values args));
          ] );
    ]

let json_of_eventset es =
  Json.Obj
    [
      ("display", json_str "%a" Eventset.pp es);
      ("rects", Json.List (List.map json_of_rect (Eventset.rects es)));
    ]

let json_of_confidence = function
  | None -> Json.Null
  | Some Exact -> Json.Obj [ ("kind", Json.Str "exact") ]
  | Some (Bounded k) ->
      Json.Obj [ ("kind", Json.Str "bounded"); ("depth", Json.Int k) ]

let json_of_evidence e =
  let obj kind fields = Json.Obj (("kind", Json.Str kind) :: fields) in
  match e with
  | Trace_escape { trace; projected } ->
      obj "trace_escape"
        [
          ("trace", json_of_trace trace); ("projected", json_of_trace projected);
        ]
  | Objects_missing os -> obj "objects_missing" [ ("objects", json_of_oids os) ]
  | Events_missing es -> obj "events_missing" [ ("events", json_of_eventset es) ]
  | Equality_witness { trace; side; left; right } ->
      obj "equality_witness"
        [
          ("trace", json_of_trace trace);
          ( "side",
            Json.Str
              (match side with
              | `Left_only -> "left_only"
              | `Right_only -> "right_only") );
          ("left", Json.Str left);
          ("right", Json.Str right);
        ]
  | Deadlock h -> obj "deadlock" [ ("trace", json_of_trace h) ]
  | Unanswerable { obligation; trace } ->
      obj "unanswerable"
        [ ("obligation", Json.Str obligation); ("trace", json_of_trace trace) ]
  | Not_composable { offending; side } ->
      obj "not_composable"
        [
          ("offending", json_of_eventset offending);
          ( "side",
            Json.Str
              (match side with
              | `Left_sees_right_internal -> "left_sees_right_internal"
              | `Right_sees_left_internal -> "right_sees_left_internal") );
        ]
  | Improper { alpha0; offending; context } ->
      obj "improper"
        [
          ("alpha0", json_of_eventset alpha0);
          ("offending", json_of_eventset offending);
          ("context", Json.Str context);
        ]
  | Objects_differ { left_only; right_only } ->
      obj "objects_differ"
        [
          ("left_only", json_of_oids left_only);
          ("right_only", json_of_oids right_only);
        ]
  | Alphabets_differ { left_only; right_only } ->
      obj "alphabets_differ"
        [
          ("left_only", json_of_eventset left_only);
          ("right_only", json_of_eventset right_only);
        ]
  | Consistency_witness h ->
      obj "consistency_witness" [ ("trace", json_of_trace h) ]
  | Law_violation { law; trace } ->
      obj "law_violation"
        [ ("law", Json.Str law); ("trace", json_of_trace trace) ]
  | Premise_unmet why -> obj "premise_unmet" [ ("reason", Json.Str why) ]
  | Note s -> obj "note" [ ("text", Json.Str s) ]

(* [Derived] serializes structurally (rule + premise digests) so the
   planner's provenance survives the store round-trip; the three direct
   procedures keep their original plain-string encoding. *)
let json_of_procedure = function
  | Derived { rule; premises } ->
      Json.Obj
        [
          ("kind", Json.Str "derived");
          ("rule", Json.Str rule);
          ("premises", Json.List (List.map (fun d -> Json.Str d) premises));
        ]
  | (Symbolic | Automata | Bounded_search) as proc ->
      json_str "%a" pp_procedure proc

let json_of_provenance p =
  Json.Obj
    [
      ( "procedure",
        match p.procedure with
        | None -> Json.Null
        | Some proc -> json_of_procedure proc );
      ("depth", match p.depth with None -> Json.Null | Some d -> Json.Int d);
      ( "universe_digest",
        match p.universe_digest with
        | None -> Json.Null
        | Some d -> Json.Str d );
      ("elapsed_ms", Json.Float p.elapsed_ms);
    ]

let to_json v =
  Json.Obj
    [
      ( "status",
        Json.Str
          (match v.status with
          | Holds -> "holds"
          | Refuted -> "refuted"
          | Vacuous -> "vacuous") );
      ("holds", Json.Bool (to_bool v));
      ("confidence", json_of_confidence v.confidence);
      ("evidence", Json.List (List.map json_of_evidence v.evidence));
      ("provenance", json_of_provenance v.provenance);
    ]

(* ------------------------------------------------------------------ *)
(* JSON parsing — the inverse of [to_json]                             *)
(* ------------------------------------------------------------------ *)

(* The parser is the missing inverse of the PR 3 serializer: it turns a
   verdict document back into the typed value, so external tools can
   feed verdicts back in and the persistent store can refuse any record
   that does not round-trip.  Structured with a local exception; the
   public entry points return a [result]. *)

exception Json_error of string

let jerr fmt = Format.kasprintf (fun m -> raise (Json_error m)) fmt

let as_obj what = function
  | Json.Obj fields -> fields
  | _ -> jerr "%s: expected an object" what

let as_list what = function
  | Json.List l -> l
  | _ -> jerr "%s: expected a list" what

let as_str what = function
  | Json.Str s -> s
  | _ -> jerr "%s: expected a string" what

let as_int what = function
  | Json.Int i -> i
  | _ -> jerr "%s: expected an integer" what

let as_bool what = function
  | Json.Bool b -> b
  | _ -> jerr "%s: expected a boolean" what

let as_float what = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> jerr "%s: expected a number" what

let field what fields k =
  match List.assoc_opt k fields with
  | Some v -> v
  | None -> jerr "%s: missing field %S" what k

(* Identifier constructors reject the empty name; surface that as a
   parse error, not an escaping exception. *)
let ident what v s =
  match v s with exception Invalid_argument m -> jerr "%s: %s" what m | x -> x

let names_of_json what j =
  List.map (fun n -> as_str what n) (as_list what j)

let cset_of_json what ~fin ~cofin j =
  match as_obj what j with
  | [ ("fin", ns) ] -> fin (names_of_json what ns)
  | [ ("cofin", ns) ] -> cofin (names_of_json what ns)
  | _ -> jerr "%s: expected {\"fin\": [...]} or {\"cofin\": [...]}" what

let oset_of_json what =
  cset_of_json what
    ~fin:(fun ns -> Oset.of_list (List.map (ident what Oid.v) ns))
    ~cofin:(fun ns -> Oset.cofin_of_list (List.map (ident what Oid.v) ns))

let mset_of_json what =
  cset_of_json what
    ~fin:(fun ns -> Mset.of_list (List.map (ident what Mth.v) ns))
    ~cofin:(fun ns -> Mset.cofin_of_list (List.map (ident what Mth.v) ns))

let vset_of_json what =
  cset_of_json what
    ~fin:(fun ns -> Vset.of_list (List.map (ident what Value.v) ns))
    ~cofin:(fun ns -> Vset.cofin_of_list (List.map (ident what Value.v) ns))

let argsel_of_json what j =
  let fields = as_obj what j in
  Argsel.make
    ~allow_none:(as_bool what (field what fields "none"))
    (vset_of_json what (field what fields "values"))

let rect_of_json what j =
  let fields = as_obj what j in
  Rect.make
    ~callers:(oset_of_json what (field what fields "callers"))
    ~callees:(oset_of_json what (field what fields "callees"))
    ~mths:(mset_of_json what (field what fields "mths"))
    ~args:(argsel_of_json what (field what fields "args"))

let eventset_of_json what j =
  let fields = as_obj what j in
  Eventset.of_rects
    (List.map (rect_of_json what) (as_list what (field what fields "rects")))

let event_of_json j =
  let what = "event" in
  let fields = as_obj what j in
  let caller = ident what Oid.v (as_str what (field what fields "caller")) in
  let callee = ident what Oid.v (as_str what (field what fields "callee")) in
  let mth = ident what Mth.v (as_str what (field what fields "mth")) in
  let arg =
    match List.assoc_opt "arg" fields with
    | None | Some Json.Null -> None
    | Some v -> Some (ident what Value.v (as_str what v))
  in
  match Event.make ?arg ~caller ~callee mth with
  | e -> e
  | exception Invalid_argument m -> jerr "%s: %s" what m

let trace_of_json j =
  Trace.of_list (List.map event_of_json (as_list "trace" j))

let oid_set_of_json what j =
  Oid.Set.of_list (List.map (ident what Oid.v) (names_of_json what j))

let confidence_of_json = function
  | Json.Null -> None
  | j -> (
      let what = "confidence" in
      let fields = as_obj what j in
      match as_str what (field what fields "kind") with
      | "exact" -> Some Exact
      | "bounded" -> Some (Bounded (as_int what (field what fields "depth")))
      | k -> jerr "%s: unknown kind %S" what k)

let evidence_of_json j =
  let what = "evidence" in
  let fields = as_obj what j in
  let f k = field what fields k in
  let str k = as_str what (f k) in
  match str "kind" with
  | "trace_escape" ->
      Trace_escape
        { trace = trace_of_json (f "trace"); projected = trace_of_json (f "projected") }
  | "objects_missing" -> Objects_missing (oid_set_of_json what (f "objects"))
  | "events_missing" -> Events_missing (eventset_of_json what (f "events"))
  | "equality_witness" ->
      Equality_witness
        {
          trace = trace_of_json (f "trace");
          side =
            (match str "side" with
            | "left_only" -> `Left_only
            | "right_only" -> `Right_only
            | s -> jerr "%s: unknown side %S" what s);
          left = str "left";
          right = str "right";
        }
  | "deadlock" -> Deadlock (trace_of_json (f "trace"))
  | "unanswerable" ->
      Unanswerable { obligation = str "obligation"; trace = trace_of_json (f "trace") }
  | "not_composable" ->
      Not_composable
        {
          offending = eventset_of_json what (f "offending");
          side =
            (match str "side" with
            | "left_sees_right_internal" -> `Left_sees_right_internal
            | "right_sees_left_internal" -> `Right_sees_left_internal
            | s -> jerr "%s: unknown side %S" what s);
        }
  | "improper" ->
      Improper
        {
          alpha0 = eventset_of_json what (f "alpha0");
          offending = eventset_of_json what (f "offending");
          context = str "context";
        }
  | "objects_differ" ->
      Objects_differ
        {
          left_only = oid_set_of_json what (f "left_only");
          right_only = oid_set_of_json what (f "right_only");
        }
  | "alphabets_differ" ->
      Alphabets_differ
        {
          left_only = eventset_of_json what (f "left_only");
          right_only = eventset_of_json what (f "right_only");
        }
  | "consistency_witness" -> Consistency_witness (trace_of_json (f "trace"))
  | "law_violation" ->
      Law_violation { law = str "law"; trace = trace_of_json (f "trace") }
  | "premise_unmet" -> Premise_unmet (str "reason")
  | "note" -> Note (str "text")
  | k -> jerr "%s: unknown kind %S" what k

let provenance_of_json j =
  let what = "provenance" in
  let fields = as_obj what j in
  let opt k conv =
    match List.assoc_opt k fields with
    | None | Some Json.Null -> None
    | Some v -> Some (conv v)
  in
  {
    procedure =
      opt "procedure" (fun v ->
          match v with
          | Json.Str "symbolic" -> Symbolic
          | Json.Str "automata" -> Automata
          | Json.Str "bounded" -> Bounded_search
          | Json.Str p -> jerr "%s: unknown procedure %S" what p
          | Json.Obj _ -> (
              let pfields = as_obj what v in
              match as_str what (field what pfields "kind") with
              | "derived" ->
                  Derived
                    {
                      rule = as_str what (field what pfields "rule");
                      premises =
                        List.map (as_str what)
                          (as_list what (field what pfields "premises"));
                    }
              | k -> jerr "%s: unknown procedure kind %S" what k)
          | _ -> jerr "%s: expected a string or object" what);
    depth = opt "depth" (as_int what);
    universe_digest = opt "universe_digest" (as_str what);
    elapsed_ms =
      (match List.assoc_opt "elapsed_ms" fields with
      | None | Some Json.Null -> 0.
      | Some v -> as_float what v);
  }

let of_json j =
  match
    let what = "verdict" in
    let fields = as_obj what j in
    let status =
      match as_str what (field what fields "status") with
      | "holds" -> Holds
      | "refuted" -> Refuted
      | "vacuous" -> Vacuous
      | s -> jerr "%s: unknown status %S" what s
    in
    {
      status;
      confidence = confidence_of_json (field what fields "confidence");
      evidence =
        List.map evidence_of_json
          (as_list what (field what fields "evidence"));
      provenance =
        (match List.assoc_opt "provenance" fields with
        | None -> no_provenance
        | Some p -> provenance_of_json p);
    }
  with
  | v -> Ok v
  | exception Json_error m -> Error m

let of_string s =
  match Json.of_string s with
  | Error m -> Error m
  | Ok j -> of_json j
