(** Trace sets: prefix-closed sets of communication traces.

    A specification's trace set T(Γ) is a prefix-closed subset of
    Seq[α(Γ)] (Def. 1 of the paper).  Each constructor below is prefix
    closed {e by construction}:

    - [All] — every trace (Example 1's Read: "no restrictions");
    - [Prs r] — the paper's [h prs R] notation;
    - [Counting c] — largest prefix-closed subset of a counting
      predicate (Example 3's P{_RW2});
    - [Pointwise (name, p)] — largest prefix-closed subset of an
      arbitrary predicate (the fallback semantics of Section 2);
    - [Forall_obj (s, body)] — per-environment-object projection
      predicates: ∀x ∈ s : h/x ∈ body x (Example 2's Read2, Example 3's
      P{_RW1});
    - [Conj ts] — intersection;
    - [Restrict (es, t)] — {h | h/es ∈ t}, projection membership;
    - [Product (parts, vis)] — the trace set of a composition
      (Defs. 4 and 11): observable traces over [vis] that extend to a
      joint trace whose projection on each part's alphabet lies in that
      part's trace set.

    All membership questions are answered by one incremental {e monitor}
    semantics ({!start}/{!step}); a denotational reference
    implementation ({!mem_naive}) exists for differential testing. *)

open Posl_ident
open Posl_sets
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Regex = Posl_regex.Regex
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics

let dfa_compile_hist =
  Metrics.histogram ~help:"Time to compile one prs-expression to a DFA, ms"
    "posl_tset_dfa_compile_ms"

let interned_states_c =
  Metrics.counter ~help:"Monitor states interned across all contexts"
    "posl_tset_interned_states_total"

(* Counted where an automaton is resolved, so every caller — batch,
   serve, watch — sees the same numbers. *)
let dfa_compiles_c =
  Metrics.counter ~help:"PRS expressions compiled to DFAs"
    "posl_engine_dfa_compiles_total"

let dfa_hits_c =
  Metrics.counter
    ~help:
      "Trace-set nodes whose automaton a context's DFA cache already held \
       (one per node resolution)"
    "posl_engine_dfa_cache_hits_total"

(* A trace set is its shape plus the identity of its construction:
   every value a constructor builds gets the next id, so a structurally
   equal re-parse is still a different value, and a table keyed by
   trace sets can hash one without reading its structure. *)
type t = { shape : shape; id : int }

and shape =
  | All
  | Prs of Regex.t
  | Counting of Counting.t
  | Pointwise of string * (Trace.t -> bool)
  | Forall_obj of Oset.t * (Oid.t -> t)
  | Conj of t list
  | Restrict of Eventset.t * t
  | Product of part list * Eventset.t

and part = { part_alpha : Eventset.t; part_tset : t }

let ids = Atomic.make 0
let make shape = { shape; id = Atomic.fetch_and_add ids 1 }
let shape t = t.shape
let all = make All
let prs r = make (Prs r)
let counting c = make (Counting c)
let pointwise name p = make (Pointwise (name, p))
let forall_obj s body = make (Forall_obj (s, body))
let conj ts = match ts with [ t ] -> t | ts -> make (Conj ts)
let restrict es t = make (Restrict (es, t))
let product parts vis = make (Product (parts, vis))
let part ~alpha tset = { part_alpha = alpha; part_tset = tset }

(* A context's nodes, keyed by the {e physical} identity of their trace
   set and held weakly: an entry goes once the GC finds its trace set
   unreachable.  The hash is the construction id, so a lookup reads the
   key of its own entry and no other.  A key read while the GC marks
   stays alive for that cycle, and a structural hash collides with each
   re-parse of the same text: lookups of a new parse would keep every
   superseded one alive. *)
module Registry = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash t = t.id
end)

(** {1 Monitor semantics} *)

(* Monitor states mirror the structure of the trace set.  They contain
   only data (no closures), so structural comparison is available for
   state de-duplication.  [Prs] monitors are DFA-backed: the expanded
   expression is compiled once per context (memoized) and the state is a
   single DFA state index — keeping states small and state spaces finite
   is what makes product (composition) monitors tractable. *)
type state =
  | S_all
  | S_dfa of int  (* DFA state of the compiled prs-automaton *)
  | S_count of int array
  | S_point of Event.t list  (* the prefix read so far, reversed *)
  | S_forall of (Oid.t * state) list  (* sorted by object *)
  | S_conj of state list
  | S_restrict of state
  | S_product of state list list  (* set of composites, sorted *)

(* A monitor state with its structural hash, taken once: hashing a
   state is the costly part of interning it, and a resize of the
   state-id table re-hashes its keys. *)
type hashed = { st_hash : int; st : state }

module State_ids = Hashtbl.Make (struct
  type t = hashed

  let equal a b = a.st_hash = b.st_hash && compare a.st b.st = 0
  let hash k = k.st_hash
end)

exception Closure_overflow of int
(** Raised when the hidden-event closure of a [Product] monitor exceeds
    the context's cap; verdicts derived after catching this exception
    must be reported as bounded, not exact. *)

(* The compiled form of a prs-expression over a universe: a minimized
   DFA of pref(L(R)) over the concrete sample of the expression's atom
   events, with a symbol index.  In a prefix-closed DFA rejection is
   permanent, so "non-accepting" means "dead". *)
type compiled_prs = {
  dfa : Posl_automata.Dfa.t;
  index : int Event.Map.t;
  atoms : Eventset.t;  (* symbolic union of the atom event sets *)
}

type prs_cache = (Regex.t, compiled_prs) Prs_cache.t

(* A node's classification of each event, by the context's dense event
   id, filled on first use.  Cells are read and written without a lock:
   a classification is a pure function of the event, so domains racing
   on a cell compute equal values, and a write lost to a concurrent
   resize only means the cell is computed again. *)
type 'a by_event = { mutable cells : 'a option array }

(* A trace set resolved against one context (a node): its automaton,
   its per-event classifiers and its resolved children, built once, so
   a step is array reads and the state arithmetic of its constructor.
   A node a walk steps also keeps successor rows: per state id, an int
   array by event id holding the successor's state id, [-1] when dead
   and [unknown] while not yet computed. *)
type node = {
  n_ctx : ctx;
  n_kind : kind;
  mutable n_rows : int array array;
}

and kind =
  | N_all
  | N_prs of prs
  | N_count of Counting.t * int array by_event  (* per-event delta *)
  | N_point of (Trace.t -> bool)
  | N_forall of forall
  | N_conj of node list
  | N_restrict of bool by_event * Eventset.t * node
  | N_product of product

and prs = {
  compiled : compiled_prs;
  live : state option array;
      (* per DFA state: the monitor state, or [None] where it is dead *)
  syms : int by_event;  (* DFA symbol, or [-1] for a rejected event *)
}

and forall = {
  sort : Oset.t;
  body : Oid.t -> t;
  children : (Oid.t, node) Hashtbl.t;
      (* the body's node per object, under the context lock: [body o]
         builds a fresh value per call, so its node is minted here once *)
  witness : node option;  (* the body at a fresh sort member *)
  touched : (node option * node option) by_event;
      (* the body nodes of an event's caller and callee, where they are
         in the sort *)
}

and product = {
  parts : node array;
  alphas : Eventset.t array;
  vis : Eventset.t;
  seen : (bool * bool array) by_event;
      (* whether the event is visible, and which parts observe it *)
  hidden : (Event.t * int * bool array) list;
      (* the concrete internal events with their ids and observers:
         the union of the part alphabets minus the visible alphabet,
         sampled over the universe *)
}

(* The record stays internal: outside the module a context is abstract
   and reached through the accessors below.  A context owns its
   automata and its interning tables: both are relative to its
   universe, so nothing outside it can reuse them soundly.

   Interning gives small integer ids to monitor states, to the
   composites of product macro-states, and to events.  Ids make
   frontier keys of the on-the-fly inclusion check word-sized (a
   visited pair is one boxed-free int instead of two deep structural
   trees), and composite ids turn a product macro-state into a bitset
   the antichain can compare with word operations.  The mutex makes
   the tables safe to share across the engine's worker domains;
   critical sections are a single hash lookup/insert. *)
and ctx = {
  universe : Universe.t;
  closure_cap : int;
  prs_cache : prs_cache;
  lock : Mutex.t;  (* guards every table below *)
  state_ids : int State_ids.t;
  mutable states : state array;  (* id -> state; doubling array *)
  mutable state_count : int;
  comp_ids : (state list, int) Hashtbl.t;  (* product composite -> id *)
  mutable comp_count : int;
  macros : (int, int array) Hashtbl.t;
      (* state id of an [S_product] -> sorted composite ids *)
  event_ids : (Event.t, int) Hashtbl.t;  (* event -> dense id *)
  mutable event_count : int;
  nodes : node Registry.t;
      (* nodes by {e physical} identity of their trace set, held
         weakly: [Spec.tset] is a field read, so the monitors a context
         sees are physically stable values, and one spec keeps one node
         (and its rows) however many questions it is in.  A node dies
         with the last value holding its trace set, such as a watcher's
         superseded parse, whatever lookups other parses make.
         Structurally-equal-but-distinct values get distinct nodes,
         which costs row sharing, never soundness. *)
}

(* Tables start small: a typical context interns a handful of states
   (a served submission, under five), contexts are never retired, and
   every table grows on demand; [state_ids] keeps each state's hash, so
   growing it hashes no state again. *)
let ctx ?(closure_cap = 20_000) universe =
  {
    universe;
    closure_cap;
    prs_cache = Prs_cache.create ();
    lock = Mutex.create ();
    state_ids = State_ids.create 64;
    states = Array.make 64 S_all;
    state_count = 0;
    comp_ids = Hashtbl.create 16;
    comp_count = 0;
    macros = Hashtbl.create 16;
    event_ids = Hashtbl.create 64;
    event_count = 0;
    nodes = Registry.create 64;
  }

let universe c = c.universe
let closure_cap c = c.closure_cap
let prs_cache c = c.prs_cache

(** {1 Interning} *)

let locked c f = Mutex.protect c.lock f

(* [a] itself when index [i] is in range, else a copy at least twice as
   long, padded with [pad]. *)
let fit a i pad =
  if i < Array.length a then a
  else begin
    let grown = Array.make (max (i + 1) (2 * Array.length a)) pad in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end

(* Composite ids are assigned under the same lock as state ids; the
   macro view of an [S_product] is computed once, at interning time,
   so lookups on the exploration hot path are a single table read. *)
let intern_composite c comp =
  match Hashtbl.find_opt c.comp_ids comp with
  | Some i -> i
  | None ->
      let i = c.comp_count in
      Hashtbl.add c.comp_ids comp i;
      c.comp_count <- i + 1;
      i

let intern_state c (st : state) : int =
  let key = { st_hash = Hashtbl.hash st; st } in
  locked c @@ fun () ->
  match State_ids.find_opt c.state_ids key with
  | Some id -> id
  | None ->
      let id = c.state_count in
      c.states <- fit c.states id S_all;
      c.states.(id) <- st;
      State_ids.add c.state_ids key id;
      c.state_count <- id + 1;
      Metrics.incr interned_states_c;
      (match st with
      | S_product comps ->
          let ids = Array.of_list (List.map (intern_composite c) comps) in
          Array.sort Int.compare ids;
          Hashtbl.replace c.macros id ids
      | _ -> ());
      id

let state_of_id c id : state =
  locked c @@ fun () ->
  if id < 0 || id >= c.state_count then invalid_arg "Tset.state_of_id";
  c.states.(id)

let macro_of_id c id : int array option =
  locked c @@ fun () -> Hashtbl.find_opt c.macros id

let event_id c (e : Event.t) : int =
  locked c @@ fun () ->
  match Hashtbl.find_opt c.event_ids e with
  | Some id -> id
  | None ->
      let id = c.event_count in
      Hashtbl.add c.event_ids e id;
      c.event_count <- id + 1;
      id

let intern_counts c =
  locked c @@ fun () -> (c.state_count, c.comp_count, c.event_count)

(* Find-or-build under the context lock.  [build] runs outside it (it
   re-enters the tables); on a race both domains build and the first
   insert wins, so every caller shares one value. *)
let memo c find add build =
  match locked c find with
  | Some v -> v
  | None ->
      let v = build () in
      locked c (fun () ->
          match find () with
          | Some winner -> winner
          | None ->
              add v;
              v)

(** {1 Nodes} *)

(* Compilation happens outside the cache lock; when two domains race
   on a fresh regex both compile and the first insert wins, which is
   sound because compiled automata for one (regex, universe) pair are
   interchangeable pure values.  Every compilation counts, benign
   duplicates included, exactly as [Prs_cache]'s own misses do; a hit
   counts once per node that resolves its automaton. *)
let compile_prs (c : ctx) (r : Regex.t) : compiled_prs =
  let compiled = ref false in
  let v =
    Prs_cache.find_or_compute c.prs_cache r @@ fun () ->
    compiled := true;
    Telemetry.with_span "tset.dfa-compile" @@ fun () ->
    let t0 = Telemetry.now_ns () in
    let ground = Regex.expand c.universe r in
    let atoms = Regex.atom_union ground in
    let events = Array.of_list (Eventset.sample c.universe atoms) in
    let dfa = Posl_regex.Regex.prs_dfa ~events ground in
    let index =
      Array.to_list events
      |> List.mapi (fun i e -> (e, i))
      |> List.to_seq |> Event.Map.of_seq
    in
    Telemetry.set_attrs
      [ ("events", string_of_int (Array.length events));
        ("states", string_of_int (Posl_automata.Dfa.n_states dfa)) ];
    Metrics.observe dfa_compile_hist
      (float_of_int (Telemetry.now_ns () - t0) /. 1e6);
    { dfa; index; atoms }
  in
  Metrics.incr (if !compiled then dfa_compiles_c else dfa_hits_c);
  v

let by_event () = { cells = [||] }

let cached t eid =
  let cells = t.cells in
  if eid < Array.length cells then Array.unsafe_get cells eid else None

let remember t eid v =
  let cells = fit t.cells eid None in
  if cells != t.cells then t.cells <- cells;
  cells.(eid) <- Some v;
  v

(* The DFA symbol of an event.  An event outside the concrete sample is
   rejected when it matches no atom symbolically (exact); an event that
   matches an atom but was not sampled would need a larger universe —
   fail loudly rather than give a wrong verdict.  The failure is raised
   again on every step that meets the event, never remembered as a
   rejection. *)
let prs_symbol compiled e =
  match Event.Map.find_opt e compiled.index with
  | Some sym -> sym
  | None ->
      if Eventset.mem e compiled.atoms then
        invalid_arg
          "Tset: event matches the specification but is outside the \
           context universe; extend the universe sample"
      else -1

let compare_state (a : state) (b : state) = Stdlib.compare a b

module Composite_set = Set.Make (struct
  type t = state list

  let compare = Stdlib.compare
end)

(* Whether every reachable monitor state of [t] is bounded-shape pure
   data, so that interning de-duplicates revisited states and
   exploration past a depth bound can hope to terminate by exhaustion.
   [Pointwise] states carry the whole prefix read so far — every
   explored path yields a fresh state, making completion exponential —
   so any monitor containing one is not finitary.  [Forall_obj] bodies
   are uniform in the object, so a single witness probe decides the
   sort. *)
let rec finitary (t : t) : bool =
  match t.shape with
  | All | Prs _ | Counting _ -> true
  | Pointwise _ -> false
  | Forall_obj (s, body) -> (
      match Oset.witness s with None -> true | Some w -> finitary (body w))
  | Conj ts -> List.for_all finitary ts
  | Restrict (_, t) -> finitary t
  | Product (parts, _) -> List.for_all (fun p -> finitary p.part_tset) parts

(* Children are resolved with their parent and owned by it; only the
   trace sets callers ask about are registered in the context. *)
let rec make_node c (t : t) : node =
  let kind =
    match t.shape with
    | All -> N_all
    | Prs r ->
        let compiled = compile_prs c r in
        let dfa = compiled.dfa in
        let live =
          Array.init (Posl_automata.Dfa.n_states dfa) (fun q ->
              if Posl_automata.Dfa.accept_state dfa q then Some (S_dfa q)
              else None)
        in
        N_prs { compiled; live; syms = by_event () }
    | Counting ct -> N_count (ct, by_event ())
    | Pointwise (_, p) -> N_point p
    | Forall_obj (sort, body) ->
        let children = Hashtbl.create 8 in
        let witness =
          Option.map (forall_child c body children) (Oset.witness sort)
        in
        N_forall { sort; body; children; witness; touched = by_event () }
    | Conj ts -> N_conj (List.map (make_node c) ts)
    | Restrict (es, t') -> N_restrict (by_event (), es, make_node c t')
    | Product (parts, vis) ->
        let alphas = Array.of_list (List.map (fun p -> p.part_alpha) parts) in
        let union_alpha = Array.fold_left Eventset.union Eventset.empty alphas in
        let hidden =
          Eventset.sample c.universe (Eventset.diff union_alpha vis)
          |> List.map (fun e ->
                 (e, event_id c e, Array.map (Eventset.mem e) alphas))
        in
        N_product
          {
            parts = Array.of_list (List.map (fun p -> make_node c p.part_tset) parts);
            alphas;
            vis;
            seen = by_event ();
            hidden;
          }
  in
  { n_ctx = c; n_kind = kind; n_rows = [||] }

and forall_child c body children o =
  memo c
    (fun () -> Hashtbl.find_opt children o)
    (fun n -> Hashtbl.add children o n)
    (fun () -> make_node c (body o))

(* The context's node for [t], minted on first use. *)
let node c (t : t) : node =
  memo c
    (fun () -> Registry.find_opt c.nodes t)
    (fun n -> Registry.add c.nodes t n)
    (fun () -> make_node c t)

(* Close a set of composites under internal (hidden) events: the
   observable trace set of a composition existentially quantifies over
   interleavings with internal activity, so after every visible step the
   monitor tracks every internal continuation.  The closure is a fixpoint
   over a finite set; [closure_cap] is a safety valve against parts with
   unbounded state (raises {!Closure_overflow}). *)
let rec closure cap p set =
  Telemetry.with_span "tset.closure" @@ fun () ->
  let rec grow frontier set =
    if Composite_set.is_empty frontier then set
    else begin
      let next = ref Composite_set.empty in
      Composite_set.iter
        (fun comp ->
          List.iter
            (fun (e, eid, observers) ->
              match step_parts p observers comp e eid with
              | Some comp' when not (Composite_set.mem comp' set) ->
                  next := Composite_set.add comp' !next
              | Some _ | None -> ())
            p.hidden)
        frontier;
      let set' = Composite_set.union set !next in
      if Composite_set.cardinal set' > cap then
        raise (Closure_overflow (Composite_set.cardinal set'));
      grow !next set'
    end
  in
  let closed = grow set set in
  if Telemetry.enabled () then
    Telemetry.set_attrs
      [ ("composites", string_of_int (Composite_set.cardinal closed)) ];
  closed

and start (n : node) : state option =
  match n.n_kind with
  | N_all -> Some S_all
  | N_prs p -> p.live.(Posl_automata.Dfa.start p.compiled.dfa)
  | N_count (ct, _) ->
      let counts = Counting.initial ct in
      if Counting.holds ct counts then Some (S_count counts) else None
  | N_point p -> if p Trace.empty then Some (S_point []) else None
  | N_forall f -> (
      match f.witness with
      | None -> Some (S_forall [])  (* empty sort: vacuous *)
      | Some w -> (
          (* ∀-monitors must reject immediately when the body rejects
             the empty trace for fresh environment objects; otherwise an
             object that never appears in the trace would never be
             checked.  The body is assumed uniform over sort members
             that are not treated specially — true of every predicate
             in the paper, where the bound variable ranges over an
             anonymous environment sort. *)
          match start w with
          | Some _ -> Some (S_forall [])
          | None -> None))
  | N_conj ns ->
      let rec loop acc = function
        | [] -> Some (S_conj (List.rev acc))
        | n :: rest -> (
            match start n with
            | Some s -> loop (s :: acc) rest
            | None -> None)
      in
      loop [] ns
  | N_restrict (_, _, n') -> Option.map (fun s -> S_restrict s) (start n')
  | N_product p -> (
      let rec starts acc i =
        if i = Array.length p.parts then Some (List.rev acc)
        else
          match start p.parts.(i) with
          | Some s -> starts (s :: acc) (i + 1)
          | None -> None
      in
      match starts [] 0 with
      | None -> None
      | Some composite -> closed n p (Composite_set.singleton composite))

(* [eid] is the context's id of [e]. *)
and step_node (n : node) (s : state) (e : Event.t) (eid : int) : state option =
  match (n.n_kind, s) with
  | N_all, S_all -> Some s
  | N_prs p, S_dfa q ->
      let sym =
        match cached p.syms eid with
        | Some sym -> sym
        | None -> remember p.syms eid (prs_symbol p.compiled e)
      in
      if sym < 0 then None
      else p.live.(Posl_automata.Dfa.step p.compiled.dfa q sym)
  | N_count (ct, deltas), S_count counts ->
      let d =
        match cached deltas eid with
        | Some d -> d
        | None ->
            let d = Counting.delta ct e in
            remember deltas eid (if Array.for_all (( = ) 0) d then [||] else d)
      in
      (* a reached vector satisfies the formula, so an event that
         changes no value keeps the state *)
      if Array.length d = 0 then Some s
      else
        let counts' = Array.mapi (fun a v -> v + d.(a)) counts in
        if Counting.holds ct counts' then Some (S_count counts') else None
  | N_point p, S_point rev ->
      let rev' = e :: rev in
      if p (Trace.of_list (List.rev rev')) then Some (S_point rev') else None
  | N_forall f, S_forall assoc -> (
      let caller, callee =
        match cached f.touched eid with
        | Some k -> k
        | None ->
            let child o =
              if Oset.mem o f.sort then
                Some (forall_child n.n_ctx f.body f.children o)
              else None
            in
            remember f.touched eid
              (child (Event.caller e), child (Event.callee e))
      in
      (* [assoc], still sorted by object, with [o]'s body stepped from
         its state there, or from its start when [o] has none yet *)
      let rec touch o body = function
        | (o', st) :: rest when Oid.compare o' o < 0 ->
            Option.map (fun rest' -> (o', st) :: rest') (touch o body rest)
        | (o', st) :: rest when Oid.equal o' o ->
            Option.map (fun st' -> (o, st') :: rest) (step_node body st e eid)
        | later ->
            Option.bind (start body) (fun st -> step_node body st e eid)
            |> Option.map (fun st' -> (o, st') :: later)
      in
      let touch_if o child assoc =
        match child with None -> Some assoc | Some body -> touch o body assoc
      in
      match (caller, callee) with
      | None, None -> Some s
      | _ ->
          Option.bind
            (touch_if (Event.caller e) caller assoc)
            (touch_if (Event.callee e) callee)
          |> Option.map (fun assoc -> S_forall assoc))
  | N_conj ns, S_conj states ->
      let rec loop acc ns states =
        match (ns, states) with
        | [], [] -> Some (S_conj (List.rev acc))
        | n :: ns', st :: states' -> (
            match step_node n st e eid with
            | Some st' -> loop (st' :: acc) ns' states'
            | None -> None)
        | _, _ -> invalid_arg "Tset.step: conjunction state mismatch"
      in
      loop [] ns states
  | N_restrict (inside, es, n'), S_restrict st ->
      let inside =
        match cached inside eid with
        | Some b -> b
        | None -> remember inside eid (Eventset.mem e es)
      in
      if inside then Option.map (fun st' -> S_restrict st') (step_node n' st e eid)
      else Some s
  | N_product p, S_product composites ->
      let visible, observers =
        match cached p.seen eid with
        | Some k -> k
        | None ->
            remember p.seen eid
              (Eventset.mem e p.vis, Array.map (Eventset.mem e) p.alphas)
      in
      if not visible then None
      else
        List.filter_map
          (fun comp -> step_parts p observers comp e eid)
          composites
        |> Composite_set.of_list |> closed n p
  | _, _ -> invalid_arg "Tset.step: state does not match trace-set structure"

(* The product state of a set of composites closed under hidden
   events; [None] when nothing survives. *)
and closed n p set =
  let set = closure n.n_ctx.closure_cap p set in
  if Composite_set.is_empty set then None
  else Some (S_product (Composite_set.elements set))

(* Advance every part that observes the event; the others are
   unaffected (projection drops the event). *)
and step_parts p observers comp e eid =
  let rec loop i acc = function
    | [] -> Some (List.rev acc)
    | st :: rest ->
        if observers.(i) then
          match step_node p.parts.(i) st e eid with
          | Some st' -> loop (i + 1) (st' :: acc) rest
          | None -> None
        else loop (i + 1) (st :: acc) rest
  in
  loop 0 [] comp

let step n s e = step_node n s e (event_id n.n_ctx e)

(** {1 Successor rows}

    The successor of an interned state under an event id, memoized in
    the node's rows.  A hit is two array reads and takes no lock.  A
    miss steps the state and interns the successor, then writes the
    cell without a lock: stepping is pure, so domains racing on a cell
    intern the same successor and write the same id, and a write lost
    to a concurrent resize only means the cell is computed again.  An
    exception — {!Closure_overflow}, or an event outside the universe —
    leaves the cell unwritten. *)

let unknown = -2

let fill n sid eid e =
  let c = n.n_ctx in
  let r =
    match step_node n (state_of_id c sid) e eid with
    | None -> -1
    | Some st -> intern_state c st
  in
  let rows = fit n.n_rows sid [||] in
  if rows != n.n_rows then n.n_rows <- rows;
  (* a new row has a cell for every event the context knows (a racy
     read of a size hint) *)
  let row = fit rows.(sid) (max eid (c.event_count - 1)) unknown in
  if row != rows.(sid) then rows.(sid) <- row;
  row.(eid) <- r;
  r

let step_id n ~event_id:eid sid e =
  let rows = n.n_rows in
  let v =
    if sid < Array.length rows then
      let row = Array.unsafe_get rows sid in
      if eid < Array.length row then Array.unsafe_get row eid else unknown
    else unknown
  in
  if v <> unknown then v else fill n sid eid e

(** {1 Membership} *)

(** [mem c t h] — h ∈ T, via the incremental monitor. *)
let mem c t h =
  let n = node c t in
  let rec loop st = function
    | [] -> true
    | e :: rest -> (
        match step n st e with None -> false | Some st' -> loop st' rest)
  in
  match start n with
  | None -> false
  | Some st -> loop st (Trace.to_list h)

(** Denotational reference semantics, for differential testing against
    {!mem}.  [Product] necessarily shares the monitor's search. *)
let rec mem_naive c t h =
  match t.shape with
  | All -> true
  | Prs r -> Regex.prs (Regex.expand c.universe r) h
  | Counting ct -> List.for_all (Counting.satisfied_by ct) (Trace.prefixes h)
  | Pointwise (_, p) -> List.for_all p (Trace.prefixes h)
  | Forall_obj (sort, body) ->
      let occurring = Oid.Set.elements (Trace.objects h) in
      let in_sort = List.filter (fun o -> Oset.mem o sort) occurring in
      let fresh_ok =
        match Oset.witness (Oset.diff sort (Oset.of_list occurring)) with
        | None -> true
        | Some w -> mem_naive c (body w) Trace.empty
      in
      fresh_ok
      && List.for_all
           (fun o -> mem_naive c (body o) (Trace.restrict_obj o h))
           in_sort
  | Conj ts -> List.for_all (fun t -> mem_naive c t h) ts
  | Restrict (es, t') -> mem_naive c t' (Eventset.restrict_trace es h)
  | Product (_, _) -> mem c t h

(** {1 Utilities} *)

let rec mentioned t =
  let union3 (a, b, c) (a', b', c') =
    (Oid.Set.union a a', Mth.Set.union b b', Value.Set.union c c')
  in
  match t.shape with
  | All -> (Oid.Set.empty, Mth.Set.empty, Value.Set.empty)
  | Prs r -> Regex.mentioned r
  | Counting c -> Counting.mentioned c
  | Pointwise _ -> (Oid.Set.empty, Mth.Set.empty, Value.Set.empty)
  | Forall_obj (s, body) -> (
      (* Sample the body at a witness: uniform bodies expose their
         structure at any sort member. *)
      let base = (Oset.mentioned s, Mth.Set.empty, Value.Set.empty) in
      match Oset.witness s with
      | None -> base
      | Some w -> union3 base (mentioned (body w)))
  | Conj ts ->
      List.fold_left
        (fun acc t -> union3 acc (mentioned t))
        (Oid.Set.empty, Mth.Set.empty, Value.Set.empty)
        ts
  | Restrict (es, t') ->
      let os, ms, vs = Eventset.mentioned es in
      union3 (os, ms, vs) (mentioned t')
  | Product (parts, vis) ->
      List.fold_left
        (fun acc p ->
          union3 acc (union3 (Eventset.mentioned p.part_alpha) (mentioned p.part_tset)))
        (Eventset.mentioned vis) parts

let rec pp ppf t =
  match t.shape with
  | All -> Format.pp_print_string ppf "all"
  | Prs r -> Format.fprintf ppf "prs %a" Regex.pp r
  | Counting c -> Format.fprintf ppf "counting %a" Counting.pp c
  | Pointwise (name, _) -> Format.fprintf ppf "pointwise <%s>" name
  | Forall_obj (s, _) -> Format.fprintf ppf "forall x ∈ %a. <body x>" Oset.pp s
  | Conj ts ->
      Format.fprintf ppf "@[<hov>%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@ ∧ ")
           pp)
        ts
  | Restrict (es, t) -> Format.fprintf ppf "(h/%a ∈ %a)" Eventset.pp es pp t
  | Product (parts, _) ->
      Format.fprintf ppf "product(%d parts)" (List.length parts)
