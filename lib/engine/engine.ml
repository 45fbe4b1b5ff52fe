(** The batch verification engine: dynamic scheduling of check jobs
    over domains + content-addressed verdict caching.

    Design notes.

    - {e Batch-level parallelism only.}  Jobs fan out over
      {!Posl_par.Par.map_dyn}; each job's own exploration is a serial
      walk.  Verification batches have enough inter-job parallelism.
    - {e Shared monitor contexts.}  [Tset.ctx] is abstract and its
      compiled-automata memo is a lock-striped {!Posl_tset.Prs_cache},
      so one context per universe is shared by {e all} worker domains:
      each prs-expression is compiled once per batch instead of once
      per domain.  Compiled automata are universe-relative, so a
      {!dfa_cache} keys striped caches by (structural) universe and can
      be threaded across batches to keep automata warm.
    - {e Shared verdict cache.}  The {!Cache} is mutex-protected and
      holds pure data; hits return the stored verdict without touching
      any monitor. *)

module Spec = Posl_core.Spec
module Tset = Posl_tset.Tset
module Prs_cache = Posl_tset.Prs_cache
module Par = Posl_par.Par
module Store = Posl_store.Store
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Verdict = Posl_verdict.Verdict
open Posl_ident

let job_ms_hist =
  Metrics.histogram ~help:"Wall time per engine job, milliseconds"
    "posl_engine_job_ms"

let domains_gauge =
  Metrics.gauge ~help:"Worker domains used by the most recent batch"
    "posl_engine_domains"

type request = {
  label : string;
  query : Job.query;
  depth : int;
  universe : Universe.t;
}

let request ?label ?(depth = 6) ~universe query =
  let label = match label with Some l -> l | None -> Job.describe query in
  { label; query; depth; universe }

let of_specs ?label ?depth ?extra_objects query =
  let universe =
    Spec.adequate_universe ?extra_objects (Job.specs query)
  in
  request ?label ?depth ~universe query

type result = {
  request : request;
  verdict : Job.verdict;
  cached : bool;
  from_store : bool;
  digest : Digest.t option;
  ms : float;
  span_id : int option;
}

type stats = {
  jobs : int;
  cache_hits : int;
  cache_misses : int;
  uncacheable : int;
  store_hits : int;
  store_misses : int;
  store_writes : int;
  derived_hits : int;
  plan_fallbacks : int;
  dfa_cache_hits : int;
  dfa_compiles : int;
  antichain_pairs : int;
  antichain_prunes : int;
  interned_states : int;
  busy_ms : float;
  wall_ms : float;
  domains : int;
  utilization : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d job%s on %d domain%s in %.1f ms (busy %.1f ms, utilization %.0f%%): \
     %d cache hit%s, %d miss%s%s%s%s; %d DFA compile%s, %d DFA cache hit%s%s"
    s.jobs
    (if s.jobs = 1 then "" else "s")
    s.domains
    (if s.domains = 1 then "" else "s")
    s.wall_ms s.busy_ms
    (100. *. s.utilization)
    s.cache_hits
    (if s.cache_hits = 1 then "" else "s")
    s.cache_misses
    (if s.cache_misses = 1 then "" else "es")
    (if s.uncacheable = 0 then ""
     else Printf.sprintf ", %d uncacheable" s.uncacheable)
    (if s.store_hits = 0 && s.store_misses = 0 && s.store_writes = 0 then ""
     else
       Printf.sprintf "; store: %d hit%s, %d miss%s, %d write%s" s.store_hits
         (if s.store_hits = 1 then "" else "s")
         s.store_misses
         (if s.store_misses = 1 then "" else "es")
         s.store_writes
         (if s.store_writes = 1 then "" else "s"))
    (if s.derived_hits = 0 && s.plan_fallbacks = 0 then ""
     else
       Printf.sprintf "; plan: %d derived, %d fallback%s" s.derived_hits
         s.plan_fallbacks
         (if s.plan_fallbacks = 1 then "" else "s"))
    s.dfa_compiles
    (if s.dfa_compiles = 1 then "" else "s")
    s.dfa_cache_hits
    (if s.dfa_cache_hits = 1 then "" else "s")
    (if s.antichain_pairs = 0 && s.interned_states = 0 then ""
     else
       Printf.sprintf "; antichain: %d pair%s, %d pruned; %d state%s interned"
         s.antichain_pairs
         (if s.antichain_pairs = 1 then "" else "s")
         s.antichain_prunes s.interned_states
         (if s.interned_states = 1 then "" else "s"))

(* The shared DFA-cache registry.  Compiled prs-automata are relative
   to a universe sample (binder expansion and event sampling), so one
   striped cache per distinct universe; universes are pure structural
   data, so structural equality is the sound key.  The registry itself
   is tiny (one entry per spec corpus) and mutex-guarded. *)
type dfa_cache = {
  dc_lock : Mutex.t;
  mutable dc_caches : (Universe.t * Tset.prs_cache) list;
  dc_stripes : int;
}

let dfa_cache ?(stripes = 16) () =
  { dc_lock = Mutex.create (); dc_caches = []; dc_stripes = stripes }

let dfa_cache_for dc universe =
  Mutex.lock dc.dc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dc.dc_lock)
    (fun () ->
      match List.find_opt (fun (u, _) -> u = universe) dc.dc_caches with
      | Some (_, cache) -> cache
      | None ->
          let cache = Prs_cache.create ~stripes:dc.dc_stripes () in
          dc.dc_caches <- (universe, cache) :: dc.dc_caches;
          cache)

let dfa_cache_stats dc =
  Mutex.lock dc.dc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dc.dc_lock)
    (fun () ->
      List.fold_left
        (fun (acc : Prs_cache.stats) (_, cache) ->
          let s = Prs_cache.stats cache in
          {
            Prs_cache.hits = acc.Prs_cache.hits + s.Prs_cache.hits;
            misses = acc.Prs_cache.misses + s.Prs_cache.misses;
            duplicates = acc.Prs_cache.duplicates + s.Prs_cache.duplicates;
            contended = acc.Prs_cache.contended + s.Prs_cache.contended;
          })
        { Prs_cache.hits = 0; misses = 0; duplicates = 0; contended = 0 }
        dc.dc_caches)

(* Monotonic per-job clock: immune to wall-clock adjustments, and the
   same time base the span layer uses. *)
let now_ns = Telemetry.now_ns

(* A session is the warm state a resident caller (the verification
   service, or run_batch for its own lifetime) threads across any
   number of answered requests: the in-memory verdict cache, the
   compiled-automata registry, the optional persistent store, and one
   shared monitor context per distinct universe.  Contexts are keyed
   structurally — two submissions that describe the same universe
   (e.g. the same spec text sent twice over a socket) share monitors
   even though the values are not physically equal. *)
type session = {
  s_cache : Cache.t;
  s_dc : dfa_cache;
  s_store : Store.t option;
  s_lock : Mutex.t;
  mutable s_ctxs : (Universe.t * Tset.ctx) list;
}

let session ?cache ?dfa_cache:dc ?store () =
  {
    s_cache = (match cache with Some c -> c | None -> Cache.create ());
    s_dc = (match dc with Some d -> d | None -> dfa_cache ());
    s_store = store;
    s_lock = Mutex.create ();
    s_ctxs = [];
  }

let session_cache s = s.s_cache
let session_dfa_cache s = s.s_dc
let session_store s = s.s_store

let session_ctx s universe =
  Mutex.lock s.s_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.s_lock)
    (fun () ->
      match List.find_opt (fun (u, _) -> u = universe) s.s_ctxs with
      | Some (_, ctx) -> ctx
      | None ->
          let ctx =
            Tset.ctx ~cache:(dfa_cache_for s.s_dc universe) universe
          in
          s.s_ctxs <- (universe, ctx) :: s.s_ctxs;
          ctx)

let rec answer ?(plan = Plan.Auto) s counters req =
  Telemetry.with_span "engine.job"
    ~attrs:[ ("label", req.label); ("kind", Job.kind req.query) ]
  @@ fun () ->
  Posl_telemetry.Runtime.with_gc_attrs @@ fun () ->
  let span_id = Telemetry.current_span_id () in
  let t0 = now_ns () in
  let digest =
    Digest.query ~universe:req.universe ~depth:req.depth req.query
  in
  let compute_direct () =
    Job.run (session_ctx s req.universe) ~depth:req.depth req.query
  in
  (* The planner sits in front of direct checking, inside the cache
     lookup: a derived verdict is produced on a cache miss and then
     cached/stored under the composite query's own digest, exactly like
     a computed one.  Premise sub-queries recurse through [answer], so
     they hit the session's warm cache and store, are recorded under
     their own digests, and may decompose further. *)
  let compute () =
    match plan with
    | Plan.Off -> compute_direct ()
    | Plan.Auto -> (
        let answer_premise ~label q =
          let premise_req =
            { req with query = q; label = label ^ ": " ^ Job.describe q }
          in
          (answer ~plan s counters premise_req).verdict
        in
        match
          Plan.derive ~answer:answer_premise ~universe:req.universe req.query
        with
        | Plan.Derived v ->
            Counters.incr_derived_hits counters;
            let elapsed_ms = float_of_int (now_ns () - t0) /. 1e6 in
            Verdict.with_context ~depth:req.depth
              ~universe_digest:(Job.universe_digest req.universe)
              ~elapsed_ms v
        | Plan.Fallback _reason ->
            Counters.incr_plan_fallbacks counters;
            compute_direct ()
        | Plan.Not_composite -> compute_direct ())
  in
  (* The persistent store sits beneath the in-memory cache: a store
     hit is promoted into the cache (so duplicates later in the batch
     hit memory), a store miss computes and write-behinds.  The store
     is keyed depth-independently ([Digest.query_base]) — its reuse
     rule lives in [Store.find]. *)
  let consult_store key compute_and_fill =
    match s.s_store with
    | None -> (false, compute_and_fill ())
    | Some store -> (
        let base = Digest.query_base ~universe:req.universe req.query in
        match base with
        | None -> (false, compute_and_fill ())
        | Some bkey -> (
            match Store.find store ~digest:bkey ~depth:req.depth with
            | Some v ->
                Counters.incr_store_hits counters;
                Cache.add s.s_cache key v;
                (true, v)
            | None ->
                Counters.incr_store_misses counters;
                let v = compute_and_fill () in
                if Store.add store ~digest:bkey ~depth:req.depth v then
                  Counters.incr_store_writes counters;
                (false, v)))
  in
  let cached, from_store, verdict =
    match digest with
    | None ->
        Counters.incr_uncacheable counters;
        (false, false, compute ())
    | Some key -> (
        match Cache.find s.s_cache key with
        | Some v ->
            Counters.incr_hits counters;
            (true, false, v)
        | None ->
            let from_store, v =
              consult_store key (fun () ->
                  let v = compute () in
                  Cache.add s.s_cache key v;
                  Counters.incr_misses counters;
                  v)
            in
            (from_store, from_store, v))
  in
  let elapsed = now_ns () - t0 in
  let ms = float_of_int elapsed /. 1e6 in
  Counters.incr_jobs counters;
  Counters.add_busy_ns counters elapsed;
  Metrics.observe job_ms_hist ms;
  Telemetry.set_attrs
    [ ("cached", string_of_bool cached);
      ("from_store", string_of_bool from_store) ];
  { request = req; verdict; cached; from_store; digest; ms; span_id }

let run_jobs ?domains ?plan s requests =
  let domains =
    match domains with Some d -> max 1 d | None -> Par.default_domains ()
  in
  let counters = Counters.create () in
  (* Build the shared context of every distinct universe before the
     workers start, so scheduling never races on context creation
     (structurally equal universes share one context through the
     session registry). *)
  List.iter (fun req -> ignore (session_ctx s req.universe)) requests;
  let dfa_before = dfa_cache_stats s.s_dc in
  Metrics.set domains_gauge (float_of_int domains);
  let t0 = now_ns () in
  let results =
    Telemetry.with_span "engine.batch"
      ~attrs:
        [ ("jobs", string_of_int (List.length requests));
          ("domains", string_of_int domains) ]
      (fun () -> Par.map_dyn ~domains (answer ?plan s counters) requests)
  in
  let wall_ms = float_of_int (now_ns () - t0) /. 1e6 in
  let dfa =
    Prs_cache.diff_stats ~before:dfa_before ~after:(dfa_cache_stats s.s_dc)
  in
  Counters.add_dfa counters ~hits:dfa.Prs_cache.hits
    ~compiles:dfa.Prs_cache.misses ~contended:dfa.Prs_cache.contended;
  let c = Counters.snapshot counters in
  let stats =
    {
      jobs = c.Counters.jobs;
      cache_hits = c.Counters.hits;
      cache_misses = c.Counters.misses;
      uncacheable = c.Counters.uncacheable;
      store_hits = c.Counters.store_hits;
      store_misses = c.Counters.store_misses;
      store_writes = c.Counters.store_writes;
      derived_hits = c.Counters.derived_hits;
      plan_fallbacks = c.Counters.plan_fallbacks;
      dfa_cache_hits = c.Counters.dfa_hits;
      dfa_compiles = c.Counters.dfa_compiles;
      antichain_pairs = c.Counters.antichain_pairs;
      antichain_prunes = c.Counters.antichain_prunes;
      interned_states = c.Counters.interned_states;
      busy_ms = c.Counters.busy_ms;
      wall_ms;
      domains;
      utilization =
        (if wall_ms <= 0. then 1.
         else c.Counters.busy_ms /. (wall_ms *. float_of_int domains));
    }
  in
  (results, stats)

let run_batch ?domains ?plan ?cache ?dfa_cache ?store requests =
  run_jobs ?domains ?plan (session ?cache ?dfa_cache ?store ()) requests
