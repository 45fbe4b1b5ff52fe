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
  Metrics.counter ~help:"Compiled automata served from a context's DFA cache"
    "posl_engine_dfa_cache_hits_total"

type t =
  | All
  | Prs of Regex.t
  | Counting of Counting.t
  | Pointwise of string * (Trace.t -> bool)
  | Forall_obj of Oset.t * (Oid.t -> t)
  | Conj of t list
  | Restrict of Eventset.t * t
  | Product of part list * Eventset.t

and part = { part_alpha : Eventset.t; part_tset : t }

let all = All
let prs r = Prs r
let counting c = Counting c
let pointwise name p = Pointwise (name, p)
let forall_obj s body = Forall_obj (s, body)
let conj ts = match ts with [ t ] -> t | ts -> Conj ts
let restrict es t = Restrict (es, t)
let product parts vis = Product (parts, vis)
let part ~alpha tset = { part_alpha = alpha; part_tset = tset }

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

(* Interning tables: small integer ids for monitor states, for the
   composites of product macro-states, and a hash-consing table for
   events.  Ids make frontier keys of the on-the-fly inclusion check
   word-sized (a visited pair is one boxed-free int instead of two deep
   structural trees), and composite ids turn a product macro-state into
   a bitset the antichain can compare with word operations.  One table
   set per context: ids are only meaningful relative to the universe
   sample, exactly like compiled automata.  The mutex makes the tables
   safe to share across the engine's worker domains; critical sections
   are a single hash lookup/insert. *)
type intern = {
  i_lock : Mutex.t;
  i_ids : (state, int) Hashtbl.t;
  mutable i_rev : state array;  (* id -> state; doubling array *)
  mutable i_count : int;
  i_comp_ids : (state list, int) Hashtbl.t;  (* product composite -> id *)
  mutable i_comp_count : int;
  i_macros : (int, int array) Hashtbl.t;
      (* state id of an [S_product] -> sorted composite ids *)
  i_events : (Event.t, Event.t * int) Hashtbl.t;
      (* hash-consed events, with a dense id for row-cache keys *)
  mutable i_event_count : int;
  mutable i_tsets : (t * int) list;
      (* physical-identity trace-set ids; a short assoc list scanned
         with (==) — contexts see a handful of distinct monitors *)
  mutable i_tset_count : int;
  i_rows : (int * int * int, int) Hashtbl.t;
      (* (tset id, state id, event id) -> successor state id, -1 dead.
         Successor rows survive across inclusion checks, so a monitor
         shared by many refinement pairs steps each state once per
         context, not once per pair. *)
  i_forall_bodies : (int * Oid.t, t) Hashtbl.t;
      (* (tset id of a [Forall_obj] node, object) -> [body o].  The
         body of Example 3's P{_RW1} builds a whole regex tree per
         application; memoizing per node keeps the sub-monitor (and
         its inner regex) one physically stable value, so per-step
         applications stop allocating and downstream caches get a
         stable key. *)
  i_hidden : (int, Event.t list) Hashtbl.t;
      (* tset id of a [Product] node -> its concrete hidden events.
         They depend only on the node and the universe, yet every
         [start] and [step] of a composite monitor needs them; deriving
         them once per node saves a union, a difference and a sample
         over the universe per step. *)
  mutable i_prs_phys : (Regex.t * compiled_prs) list;
      (* physical-identity front cache over [prs_cache], capped at
         [prs_phys_cap]: hot-path regexes are stable values (module
         constants, or [i_forall_bodies] members), so stepping
         resolves their automata by pointer scan instead of a
         structural hash + equality per step.  The cap keeps fresh
         regexes from growing the scan; they miss into the striped
         cache, which is keyed structurally.  Read lock-free (a cons
         chain is immutable); extended under [i_lock]. *)
}

let prs_phys_cap = 64

let intern_create () =
  {
    i_lock = Mutex.create ();
    i_ids = Hashtbl.create 1024;
    i_rev = Array.make 1024 S_all;
    i_count = 0;
    i_comp_ids = Hashtbl.create 256;
    i_comp_count = 0;
    i_macros = Hashtbl.create 256;
    i_events = Hashtbl.create 256;
    i_event_count = 0;
    i_tsets = [];
    i_tset_count = 0;
    i_rows = Hashtbl.create 4096;
    i_forall_bodies = Hashtbl.create 64;
    i_hidden = Hashtbl.create 16;
    i_prs_phys = [];
  }

(* The record stays internal: outside the module a context is abstract
   and reached through the accessors below, which is what lets the
   compiled-automata memo be a domain-safe striped cache rather than a
   leaked hashtable.  A context owns its automata: they are relative to
   its universe, so nothing outside it can reuse them soundly. *)
type ctx = {
  universe : Universe.t;
  closure_cap : int;
  prs_cache : prs_cache;
  intern : intern;
}

let ctx ?(closure_cap = 20_000) universe =
  {
    universe;
    closure_cap;
    prs_cache = Prs_cache.create ();
    intern = intern_create ();
  }

let universe c = c.universe
let closure_cap c = c.closure_cap
let prs_cache c = c.prs_cache

(* "Same context, tighter cap" is the common way to probe closure
   overflows in tests: the automata carry over, the interning tables
   start fresh. *)
let with_closure_cap cap c =
  { c with closure_cap = cap; intern = intern_create () }

(** {1 Interning} *)

let with_intern c f =
  let it = c.intern in
  Mutex.lock it.i_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock it.i_lock) (fun () -> f it)

(* Composite ids are assigned under the same lock as state ids; the
   macro view of an [S_product] is computed once, at interning time,
   so lookups on the exploration hot path are a single table read. *)
let intern_composite it comp =
  match Hashtbl.find_opt it.i_comp_ids comp with
  | Some i -> i
  | None ->
      let i = it.i_comp_count in
      Hashtbl.add it.i_comp_ids comp i;
      it.i_comp_count <- i + 1;
      i

let intern_state c (st : state) : int =
  with_intern c @@ fun it ->
  match Hashtbl.find_opt it.i_ids st with
  | Some id -> id
  | None ->
      let id = it.i_count in
      if id >= Array.length it.i_rev then begin
        let grown = Array.make (2 * Array.length it.i_rev) S_all in
        Array.blit it.i_rev 0 grown 0 (Array.length it.i_rev);
        it.i_rev <- grown
      end;
      it.i_rev.(id) <- st;
      Hashtbl.add it.i_ids st id;
      it.i_count <- id + 1;
      Metrics.incr interned_states_c;
      (match st with
      | S_product comps ->
          let ids = Array.of_list (List.map (intern_composite it) comps) in
          Array.sort Int.compare ids;
          Hashtbl.replace it.i_macros id ids
      | _ -> ());
      id

let state_of_id c id : state =
  with_intern c @@ fun it ->
  if id < 0 || id >= it.i_count then invalid_arg "Tset.state_of_id";
  it.i_rev.(id)

let macro_of_id c id : int array option =
  with_intern c @@ fun it -> Hashtbl.find_opt it.i_macros id

let hashcons_event c (e : Event.t) : Event.t =
  with_intern c @@ fun it ->
  match Hashtbl.find_opt it.i_events e with
  | Some (canonical, _) -> canonical
  | None ->
      Hashtbl.add it.i_events e (e, it.i_event_count);
      it.i_event_count <- it.i_event_count + 1;
      e

let event_id c (e : Event.t) : int =
  with_intern c @@ fun it ->
  match Hashtbl.find_opt it.i_events e with
  | Some (_, id) -> id
  | None ->
      let id = it.i_event_count in
      Hashtbl.add it.i_events e (e, id);
      it.i_event_count <- id + 1;
      id

(* Physical identity, not structural: [Spec.tset] is a field read, so
   the monitors a context actually sees are physically stable values.
   Structurally-equal-but-distinct monitors merely get distinct ids,
   which costs row sharing, never soundness. *)
let tset_id c (t : t) : int =
  with_intern c @@ fun it ->
  let rec find = function
    | [] -> None
    | (t', id) :: _ when t' == t -> Some id
    | _ :: rest -> find rest
  in
  match find it.i_tsets with
  | Some id -> id
  | None ->
      let id = it.i_tset_count in
      it.i_tsets <- (t, id) :: it.i_tsets;
      it.i_tset_count <- id + 1;
      id

(* A per-context memo over one of the intern tables.  [f] runs outside
   the lock; on a race both domains build structurally equal values and
   the first insert wins, so every caller shares one physical value. *)
let memo c table key f =
  match with_intern c (fun it -> Hashtbl.find_opt (table it) key) with
  | Some v -> v
  | None ->
      let v = f () in
      with_intern c (fun it ->
          let tbl = table it in
          match Hashtbl.find_opt tbl key with
          | Some winner -> winner
          | None ->
              Hashtbl.add tbl key v;
              v)

(* Memoized [body o] for a [Forall_obj] node. *)
let forall_body c (node : t) (body : Oid.t -> t) (o : Oid.t) : t =
  memo c (fun it -> it.i_forall_bodies) (tset_id c node, o) (fun () -> body o)

let intern_counts c =
  with_intern c @@ fun it -> (it.i_count, it.i_comp_count, it.i_event_count)

(* Compilation happens outside the stripe lock; when two domains race
   on a fresh regex both compile and the first insert wins, which is
   sound because compiled automata for one (regex, universe) pair are
   interchangeable pure values.  Every compilation counts, benign
   duplicates included, exactly as [Prs_cache]'s own misses do. *)
let compile_prs_shared (c : ctx) (r : Regex.t) : compiled_prs =
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

(* Pointer-scan front over the striped cache; see [i_prs_phys]. *)
let compile_prs (c : ctx) (r : Regex.t) : compiled_prs =
  let rec scan = function
    | [] -> None
    | (r', v) :: _ when r' == r -> Some v
    | _ :: rest -> scan rest
  in
  match scan c.intern.i_prs_phys with
  | Some v -> v
  | None ->
      let v = compile_prs_shared c r in
      with_intern c (fun it ->
          if
            List.length it.i_prs_phys < prs_phys_cap
            && not (List.exists (fun (r', _) -> r' == r) it.i_prs_phys)
          then it.i_prs_phys <- (r, v) :: it.i_prs_phys);
      v

(* Step the compiled automaton.  Events outside the concrete sample are
   rejected when they match no atom symbolically (exact); an event that
   matches an atom but was not sampled would need a larger universe —
   fail loudly rather than give a wrong verdict. *)
let step_prs compiled q e =
  match Event.Map.find_opt e compiled.index with
  | Some sym ->
      let q' = Posl_automata.Dfa.step compiled.dfa q sym in
      if Posl_automata.Dfa.accept_state compiled.dfa q' then Some q' else None
  | None ->
      if Eventset.mem e compiled.atoms then
        invalid_arg
          "Tset: event matches the specification but is outside the \
           context universe; extend the universe sample"
      else None

let compare_state (a : state) (b : state) = Stdlib.compare a b

module Composite_set = Set.Make (struct
  type t = state list

  let compare = Stdlib.compare
end)

(* ∀-monitors must reject immediately when the body rejects the empty
   trace for fresh environment objects; otherwise an object that never
   appears in the trace would never be checked.  The body is assumed
   uniform over sort members that are not treated specially — true of
   every predicate in the paper, where the bound variable ranges over an
   anonymous environment sort. *)
let forall_witness s =
  match Oset.witness s with
  | Some w -> Some w
  | None -> None

(* Whether every reachable monitor state of [t] is bounded-shape pure
   data, so that interning de-duplicates revisited states and
   exploration past a depth bound can hope to terminate by exhaustion.
   [Pointwise] states carry the whole prefix read so far — every
   explored path yields a fresh state, making completion exponential —
   so any monitor containing one is not finitary.  [Forall_obj] bodies
   are uniform in the object, so a single witness probe decides the
   sort. *)
let rec finitary (t : t) : bool =
  match t with
  | All | Prs _ | Counting _ -> true
  | Pointwise _ -> false
  | Forall_obj (s, body) -> (
      match forall_witness s with None -> true | Some w -> finitary (body w))
  | Conj ts -> List.for_all finitary ts
  | Restrict (_, t) -> finitary t
  | Product (parts, _) -> List.for_all (fun p -> finitary p.part_tset) parts

let rec start (c : ctx) (t : t) : state option =
  match t with
  | All -> Some S_all
  | Prs r ->
      let compiled = compile_prs c r in
      let q0 = Posl_automata.Dfa.start compiled.dfa in
      if Posl_automata.Dfa.accept_state compiled.dfa q0 then Some (S_dfa q0)
      else None
  | Counting ct ->
      let counts = Counting.initial ct in
      if Counting.holds ct counts then Some (S_count counts) else None
  | Pointwise (_, p) -> if p Trace.empty then Some (S_point []) else None
  | Forall_obj (s, body) -> (
      match forall_witness s with
      | None -> Some (S_forall [])  (* empty sort: vacuous *)
      | Some w -> (
          match start c (body w) with
          | Some _ -> Some (S_forall [])
          | None -> None))
  | Conj ts ->
      let rec loop acc = function
        | [] -> Some (S_conj (List.rev acc))
        | t :: rest -> (
            match start c t with
            | Some s -> loop (s :: acc) rest
            | None -> None)
      in
      loop [] ts
  | Restrict (_, t') -> Option.map (fun s -> S_restrict s) (start c t')
  | Product (parts, vis) -> (
      let rec starts acc = function
        | [] -> Some (List.rev acc)
        | p :: rest -> (
            match start c p.part_tset with
            | Some s -> starts (s :: acc) rest
            | None -> None)
      in
      match starts [] parts with
      | None -> None
      | Some composite ->
          let hidden = hidden_events c t parts vis in
          let set =
            product_closure c parts hidden (Composite_set.singleton composite)
          in
          if Composite_set.is_empty set then None
          else Some (S_product (Composite_set.elements set)))

and step (c : ctx) (t : t) (s : state) (e : Event.t) : state option =
  match (t, s) with
  | All, S_all -> Some S_all
  | Prs r, S_dfa q ->
      Option.map (fun q' -> S_dfa q') (step_prs (compile_prs c r) q e)
  | Counting ct, S_count counts ->
      let counts' = Counting.bump ct counts e in
      if Counting.holds ct counts' then Some (S_count counts')
      else None
  | Pointwise (_, p), S_point rev ->
      let rev' = e :: rev in
      if p (Trace.of_list (List.rev rev')) then Some (S_point rev') else None
  | Forall_obj (sort, body), S_forall assoc ->
      let touch o acc =
        match acc with
        | None -> None
        | Some assoc ->
            if not (Oset.mem o sort) then Some assoc
            else
              let bt = forall_body c t body o in
              let current =
                match List.assoc_opt o assoc with
                | Some st -> Some st
                | None -> start c bt
              in
              (match current with
              | None -> None
              | Some st -> (
                  match step c bt st e with
                  | None -> None
                  | Some st' ->
                      Some ((o, st') :: List.remove_assoc o assoc)))
      in
      (match touch (Event.caller e) (Some assoc) with
      | None -> None
      | Some assoc -> (
          match touch (Event.callee e) (Some assoc) with
          | None -> None
          | Some assoc ->
              Some (S_forall (List.sort (fun (a, _) (b, _) -> Oid.compare a b) assoc))))
  | Conj ts, S_conj states ->
      let rec loop acc ts states =
        match (ts, states) with
        | [], [] -> Some (S_conj (List.rev acc))
        | t :: ts', st :: states' -> (
            match step c t st e with
            | Some st' -> loop (st' :: acc) ts' states'
            | None -> None)
        | _, _ -> invalid_arg "Tset.step: conjunction state mismatch"
      in
      loop [] ts states
  | Restrict (es, t'), S_restrict st ->
      if Eventset.mem e es then
        Option.map (fun st' -> S_restrict st') (step c t' st e)
      else Some s
  | Product (parts, vis), S_product composites ->
      if not (Eventset.mem e vis) then None
      else
        let stepped =
          List.filter_map (fun comp -> step_composite c parts comp e) composites
        in
        let hidden = hidden_events c t parts vis in
        let set = product_closure c parts hidden (Composite_set.of_list stepped) in
        if Composite_set.is_empty set then None
        else Some (S_product (Composite_set.elements set))
  | _, _ -> invalid_arg "Tset.step: state does not match trace-set structure"

(* Advance every part that observes [e]; parts whose alphabet does not
   contain [e] are unaffected (projection drops the event). *)
and step_composite c parts comp e =
  let rec loop acc parts comp =
    match (parts, comp) with
    | [], [] -> Some (List.rev acc)
    | p :: parts', st :: comp' ->
        if Eventset.mem e p.part_alpha then
          match step c p.part_tset st e with
          | Some st' -> loop (st' :: acc) parts' comp'
          | None -> None
        else loop (st :: acc) parts' comp'
    | _, _ -> invalid_arg "Tset.step_composite: arity mismatch"
  in
  loop [] parts comp

(* Concrete internal events of the composition [node]: the union of the
   part alphabets minus the visible alphabet, sampled over the universe;
   derived once per (context, node). *)
and hidden_events c node parts vis =
  memo c (fun it -> it.i_hidden) (tset_id c node) @@ fun () ->
  let union_alpha =
    List.fold_left
      (fun acc p -> Eventset.union acc p.part_alpha)
      Eventset.empty parts
  in
  Eventset.sample c.universe (Eventset.diff union_alpha vis)

(* Close a set of composites under internal (hidden) events: the
   observable trace set of a composition existentially quantifies over
   interleavings with internal activity, so after every visible step the
   monitor tracks every internal continuation.  The closure is a fixpoint
   over a finite set; [closure_cap] is a safety valve against parts with
   unbounded state (raises {!Closure_overflow}). *)
and product_closure c parts hidden set =
  Telemetry.with_span "tset.closure" @@ fun () ->
  let rec grow frontier set =
    if Composite_set.is_empty frontier then set
    else begin
      let next = ref Composite_set.empty in
      Composite_set.iter
        (fun comp ->
          List.iter
            (fun e ->
              match step_composite c parts comp e with
              | Some comp' when not (Composite_set.mem comp' set) ->
                  next := Composite_set.add comp' !next
              | Some _ | None -> ())
            hidden)
        frontier;
      let set' = Composite_set.union set !next in
      if Composite_set.cardinal set' > c.closure_cap then
        raise (Closure_overflow (Composite_set.cardinal set'));
      grow !next set'
    end
  in
  let closed = grow set set in
  if Telemetry.enabled () then
    Telemetry.set_attrs
      [ ("composites", string_of_int (Composite_set.cardinal closed)) ];
  closed

(** {1 Cached stepping}

    The successor of an interned state under a hash-consed event,
    memoized in the context's row cache.  Monitor stepping is pure, so
    two domains racing on one key compute the same value and the last
    insert wins; the step itself runs outside the lock (it re-enters
    the interning table).  A [Closure_overflow] propagates uncached. *)
let step_id c (t : t) ~tset_id:tid ~event_id:eid (sid : int) (e : Event.t) :
    int =
  let key = (tid, sid, eid) in
  match with_intern c (fun it -> Hashtbl.find_opt it.i_rows key) with
  | Some r -> r
  | None ->
      let st = state_of_id c sid in
      let r =
        match step c t st e with
        | None -> -1
        | Some st' -> intern_state c st'
      in
      with_intern c (fun it -> Hashtbl.replace it.i_rows key r);
      r

(** {1 Membership} *)

(** [mem c t h] — h ∈ T, via the incremental monitor. *)
let mem c t h =
  let rec loop st = function
    | [] -> true
    | e :: rest -> (
        match step c t st e with None -> false | Some st' -> loop st' rest)
  in
  match start c t with
  | None -> false
  | Some st -> loop st (Trace.to_list h)

(** Denotational reference semantics, for differential testing against
    {!mem}.  [Product] necessarily shares the monitor's search. *)
let rec mem_naive c t h =
  match t with
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
  match t with
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

let rec pp ppf = function
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
