(** The batch verification engine.

    Accepts a batch of check {!request}s (the five query kinds of
    {!Job}), schedules them across OCaml 5 domains through
    {!Posl_par.Par.map_dyn}'s dynamic work queue, and memoizes verdicts
    in a content-addressed {!Cache} keyed by {!Digest}.  Parallelism
    lives at the batch level: each job runs its own state-space
    exploration serially, so domains are never nested.  Monitor
    contexts are {e shared} across all worker domains — the compiled
    prs-automata memo behind the abstract [Tset.ctx] is a mutex-guarded
    {!Posl_tset.Prs_cache} — so each automaton is compiled once per
    {!session} regardless of the domain count.  A session holds one
    context per universe, and each context owns its automata; keeping
    the session keeps them compiled across batches ({!run_jobs}). *)

module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
open Posl_ident

type request = {
  label : string;
  query : Job.query;
  depth : int;
  universe : Universe.t;
      (** the universe bounded verdicts are relative to — single-query
          CLI semantics: the adequate universe of the whole spec file *)
}

(** Both request builders take their optional arguments in the same
    order — [?label], [?depth], then what fixes the universe — so call
    sites read uniformly.  [label] defaults to {!Job.describe}; [depth]
    to 6 (the CLI default). *)

val request :
  ?label:string -> ?depth:int -> universe:Universe.t -> Job.query -> request

val of_specs :
  ?label:string -> ?depth:int -> ?extra_objects:int -> Job.query -> request
(** Convenience: derive the universe from the query's own
    specifications via {!Spec.adequate_universe}. *)

type result = {
  request : request;
  verdict : Job.verdict;
  cached : bool;
      (** answered without recomputing (in-memory cache or persistent
          store) *)
  from_store : bool;  (** answered from the persistent store *)
  digest : Digest.t option;  (** [None] = uncacheable (opaque tset) *)
  ms : float;  (** wall time spent answering this job *)
  span_id : int option;
      (** id of this job's ["engine.job"] telemetry span, when tracing
          was enabled ({!Posl_telemetry.Telemetry.set_enabled}) —
          matches the [span_id] arg of the exported trace events *)
}

type stats = {
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  uncacheable : int;
  store_hits : int;
      (** verdicts served from the persistent store (and promoted into
          the in-memory cache) *)
  store_misses : int;  (** store lookups that fell through to compute *)
  store_writes : int;  (** freshly computed verdicts appended to the store *)
  derived_hits : int;
      (** composite verdicts the {!Plan}ner derived from component
          verdicts (Theorems 7 & 16) instead of checking directly *)
  plan_fallbacks : int;
      (** composite queries the planner recognised but declined (side
          condition failed or premise not exact), answered directly *)
  dfa_cache_hits : int;
      (** trace-set nodes whose prs-automaton a context's DFA cache
          already held (one per node resolution) *)
  dfa_compiles : int;
      (** prs-expressions compiled to DFAs during this batch; with
          shared contexts this does not scale with the domain count *)
  antichain_pairs : int;
      (** product pairs admitted by on-the-fly antichain inclusion
          checks during this batch *)
  antichain_prunes : int;
      (** candidate pairs the antichain subsumed (never explored) *)
  interned_states : int;
      (** distinct monitor states interned into contexts this batch *)
  busy_ms : float;  (** summed per-job wall time across workers *)
  wall_ms : float;  (** batch wall time *)
  domains : int;  (** requested worker count *)
  utilization : float;  (** busy_ms / (wall_ms × domains) *)
}

val pp_stats : Format.formatter -> stats -> unit

(** {1 Sessions}

    The warm state a resident caller threads across any number of
    answered requests: the in-memory verdict {!Cache}, the optional
    persistent store, one shared monitor context per distinct
    universe, which owns that universe's compiled automata, and each
    universe's piece of the content addresses ({!spec_key}).  {!run_batch} is one
    throwaway session; the verification service ([posl.serve]) and the
    watcher keep a session alive so every submission lands on warm
    caches. *)

type session

val session : ?store:Posl_store.Store.t -> unit -> session
(** A fresh session: empty verdict cache, no contexts yet, and the
    store if given. *)

val session_cache : session -> Cache.t
val session_store : session -> Posl_store.Store.t option

val session_ctx : session -> Posl_ident.Universe.t -> Posl_tset.Tset.ctx
(** The session's shared monitor context for [universe], created on
    first use.  Universes are compared {e structurally}, so repeated
    submissions of the same spec content share monitors and compiled
    automata even across distinct values.  Thread- and domain-safe. *)

val spec_key : universe:Posl_ident.Universe.t -> Spec.t -> string option
(** {!Digest.spec_key}, once per spec value: the serialization is kept
    by the value itself ({!Spec.keyed}), so it lives exactly as long as
    the value (a re-parsed file's old specs take theirs along, and no
    lookup of a new parse touches them), and it answers only for a
    structurally equal universe ([Forall_obj] bodies expand over the
    universe's objects).  A session keeps each universe's
    {!Digest.universe_key}.  {!answer} keys every request from these
    pieces with {!Digest.of_keys}, byte-identical to
    {!Digest.query_base}, so no cache or store key moves.
    Thread- and domain-safe: racing callers derive equal keys. *)

type dfa_cache
(** A view of a session's compiled automata: those of every context it
    holds. *)

val session_dfa_cache : session -> dfa_cache

val dfa_cache_stats : dfa_cache -> Posl_tset.Prs_cache.stats
(** Hit and miss counts summed over the session's contexts. *)

val answer : ?plan:Plan.mode -> session -> Counters.t -> request -> result
(** Answer one request against the session's warm state: in-memory
    cache, then persistent store (promote on hit, write-behind on
    miss), then — on a miss — the compositional {!Plan}ner (default
    [?plan:Auto]; composite [Refine]/[Equal] queries whose theorem
    side conditions hold are derived from component sub-verdicts,
    which recurse through [answer] and so land in the same cache and
    store), and finally direct computation with {!Job.run}.
    Derived verdicts are cached and stored under the composite query's
    digest like computed ones.  Every key — the request's, and the
    planner's component and premise keys — is assembled from memoised
    pieces ({!spec_key}).  Safe to call concurrently from any
    number of threads or domains — this is the unit of work the
    verification service's scheduler dispatches.  Traffic is counted
    into the process registry; [counters] is the caller's delta view
    of it ({!Counters.snapshot}). *)

val run_jobs :
  ?domains:int -> ?plan:Plan.mode -> session -> request list ->
  result list * stats
(** Answer every request over the session's warm state, scheduled
    across [domains] workers; results are order-stable with the input.
    Stats cover exactly this call's traffic.  [plan] (default [Auto])
    selects whether composite queries may be answered by the
    compositional planner; [Plan.Off] restores pure direct checking. *)

val run_batch :
  ?domains:int ->
  ?plan:Plan.mode ->
  ?store:Posl_store.Store.t ->
  request list ->
  result list * stats
(** [run_jobs] over a fresh {!session}: every request answered cold,
    results order-stable with the input.  [domains] defaults to
    {!Posl_par.Par.default_domains}.  All worker domains share one
    monitor context per universe.  Deterministic: the verdict list is
    identical for every domain count.  To serve repeated obligations
    (verdicts) and repeated prs-expressions (compiled DFAs) across
    batches, keep a session and call {!run_jobs}.

    [store] plugs a persistent {!Posl_store.Store} beneath the
    in-memory cache: cacheable jobs that miss memory consult the store
    (keyed by the depth-independent {!Digest.query_base}; bounded
    verdicts only qualify at recorded depth ≥ the requested depth), a
    hit is promoted into the in-memory cache, and a miss computes and
    write-behinds the fresh verdict — so re-running a manifest against
    a warm store recomputes only the jobs whose content changed.
    [cache_misses] keeps meaning "computed fresh"; store traffic is
    counted separately in [store_hits]/[store_misses]/[store_writes]. *)
