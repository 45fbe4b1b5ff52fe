(** The batch verification engine: dynamic scheduling of check jobs
    over domains + content-addressed verdict caching.

    Design notes.

    - {e Batch-level parallelism only.}  Jobs fan out over
      {!Posl_par.Par.map_dyn}, a pool of worker domains for the batch
      with the caller among them; each job's own exploration is a
      serial walk.  Verification batches have enough inter-job
      parallelism.
    - {e Shared monitor contexts.}  [Tset.ctx] is abstract and its
      compiled-automata memo is a mutex-guarded {!Posl_tset.Prs_cache},
      so one context per universe is shared by {e all} worker domains:
      each prs-expression is compiled once per session instead of once
      per domain.  A context owns its automata (they are
      universe-relative), so the session's context table, keyed by
      structural universe, is its only per-universe registry; a caller
      that keeps automata warm across batches keeps the session.
    - {e Shared verdict cache.}  The {!Cache} is mutex-protected and
      holds pure data; hits return the stored verdict without touching
      any monitor.
    - {e Keys once per spec value.}  A request's content address is
      assembled from memoised pieces: each spec value's serialization,
      which the value itself keeps ({!Spec.keyed}), and each universe's,
      which the session keeps, so a repeated question costs a few reads
      and one MD5, not a re-serialization of every body. *)

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

let stats_of counters ~wall_ms ~domains =
  let d = Counters.delta counters in
  let busy_ms = float_of_int (d Counters.busy_ns) /. 1e6 in
  {
    jobs = d Counters.jobs;
    cache_hits = d Counters.hits;
    cache_misses = d Counters.misses;
    uncacheable = d Counters.uncacheable;
    store_hits = d Counters.store_hits;
    store_misses = d Counters.store_misses;
    store_writes = d Counters.store_writes;
    derived_hits = d Counters.derived_hits;
    plan_fallbacks = d Counters.plan_fallbacks;
    dfa_cache_hits = d Counters.dfa_hits;
    dfa_compiles = d Counters.dfa_compiles;
    antichain_pairs = d Counters.antichain_pairs;
    antichain_prunes = d Counters.antichain_prunes;
    interned_states = d Counters.interned_states;
    busy_ms;
    wall_ms;
    domains;
    utilization =
      (if wall_ms <= 0. then 1.
       else busy_ms /. (wall_ms *. float_of_int domains));
  }

(* Monotonic per-job clock: immune to wall-clock adjustments, and the
   same time base the span layer uses. *)
let now_ns = Telemetry.now_ns

(* A session is the warm state a resident caller (the verification
   service, the watcher, or run_batch for its own lifetime) threads
   across any number of answered requests: the in-memory verdict cache,
   the optional persistent store, one shared monitor context per
   distinct universe — the only automata registry, since each context
   owns its compiled automata — and each universe's piece of the
   content addresses.  Universes are hashed structurally: two
   submissions that describe the same universe (e.g. the same spec text
   sent twice over a socket) share monitors even though the values are
   not physically equal. *)
type session = {
  s_cache : Cache.t;
  s_store : Store.t option;
  s_lock : Mutex.t;  (* guards [s_ctxs] and [s_ukeys] *)
  s_ctxs : (Universe.t, Tset.ctx) Hashtbl.t;
  s_ukeys : (Universe.t, string) Hashtbl.t;  (* [Digest.universe_key] *)
}

let session ?store () =
  {
    s_cache = Cache.create ();
    s_store = store;
    s_lock = Mutex.create ();
    s_ctxs = Hashtbl.create 16;
    s_ukeys = Hashtbl.create 16;
  }

let session_cache s = s.s_cache
let session_store s = s.s_store

let with_lock s f =
  Mutex.lock s.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.s_lock) f

let session_ctx s universe =
  with_lock s @@ fun () ->
  match Hashtbl.find_opt s.s_ctxs universe with
  | Some ctx -> ctx
  | None ->
      let ctx = Tset.ctx universe in
      Hashtbl.add s.s_ctxs universe ctx;
      ctx

(* Content addresses, once per spec value, kept by the value, so a
   superseded parse's keys go with it.  A key only answers for a
   structurally equal universe, since [Forall_obj] bodies expand over
   the universe's objects; a spec asked under another universe is
   serialized again. *)
let spec_key ~universe spec =
  Spec.keyed spec ~universe (fun () -> Digest.spec_key ~universe spec)

let universe_key s universe =
  with_lock s @@ fun () ->
  match Hashtbl.find_opt s.s_ukeys universe with
  | Some key -> key
  | None ->
      let key = Digest.universe_key universe in
      Hashtbl.add s.s_ukeys universe key;
      key

(* [Digest.query_base], byte for byte, from the session's pieces. *)
let query_base s ~universe q =
  Digest.of_keys ~kind:(Job.kind q) ~universe_key:(universe_key s universe)
    (List.map (spec_key ~universe) (Job.specs q))

(* The compiled automata of a session, viewed through its contexts. *)
type dfa_cache = session

let session_dfa_cache s = s

let dfa_cache_stats s =
  with_lock s @@ fun () ->
  Hashtbl.fold
    (fun _ ctx (acc : Prs_cache.stats) ->
      let c = Prs_cache.stats (Tset.prs_cache ctx) in
      { Prs_cache.hits = acc.hits + c.hits; misses = acc.misses + c.misses })
    s.s_ctxs
    { Prs_cache.hits = 0; misses = 0 }

let rec answer ?(plan = Plan.Auto) s counters req =
  Telemetry.with_span "engine.job"
    ~attrs:[ ("label", req.label); ("kind", Job.kind req.query) ]
  @@ fun () ->
  Posl_telemetry.Runtime.with_gc_attrs @@ fun () ->
  let span_id = Telemetry.current_span_id () in
  let t0 = now_ns () in
  (* One key per request, from the session's memoised pieces: the
     store's depth-independent key, and the in-memory key derived from
     it. *)
  let base = query_base s ~universe:req.universe req.query in
  let digest = Option.map (Digest.at_depth ~depth:req.depth) base in
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
          Plan.derive ~answer:answer_premise
            ~keys:
              {
                Plan.spec_key = spec_key ~universe:req.universe;
                query_key = query_base s ~universe:req.universe;
              }
            req.query
        with
        | Plan.Derived v ->
            Metrics.incr Counters.derived_hits;
            let elapsed_ms = float_of_int (now_ns () - t0) /. 1e6 in
            Verdict.with_context ~depth:req.depth
              ~universe_digest:(Job.universe_digest req.universe)
              ~elapsed_ms v
        | Plan.Fallback _reason ->
            Metrics.incr Counters.plan_fallbacks;
            compute_direct ()
        | Plan.Not_composite -> compute_direct ())
  in
  (* The persistent store sits beneath the in-memory cache: a store
     hit is promoted into the cache (so duplicates later in the batch
     hit memory), a store miss computes and write-behinds.  The store
     is keyed depth-independently ([Digest.query_base]) — its reuse
     rule lives in [Store.find]. *)
  let consult_store bkey key compute_and_fill =
    match s.s_store with
    | None -> (false, compute_and_fill ())
    | Some store -> (
        match Store.find store ~digest:bkey ~depth:req.depth with
        | Some v ->
            Metrics.incr Counters.store_hits;
            Cache.add s.s_cache key v;
            (true, v)
        | None ->
            Metrics.incr Counters.store_misses;
            let v = compute_and_fill () in
            if Store.add store ~digest:bkey ~depth:req.depth v then
              Metrics.incr Counters.store_writes;
            (false, v))
  in
  let cached, from_store, verdict =
    match (base, digest) with
    | Some bkey, Some key -> (
        match Cache.find s.s_cache key with
        | Some v ->
            Metrics.incr Counters.hits;
            (true, false, v)
        | None ->
            let from_store, v =
              consult_store bkey key (fun () ->
                  let v = compute () in
                  Cache.add s.s_cache key v;
                  Metrics.incr Counters.misses;
                  v)
            in
            (from_store, from_store, v))
    | _ ->
        Metrics.incr Counters.uncacheable;
        (false, false, compute ())
  in
  let elapsed = now_ns () - t0 in
  let ms = float_of_int elapsed /. 1e6 in
  Metrics.incr Counters.jobs;
  Metrics.add Counters.busy_ns elapsed;
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
  Metrics.set domains_gauge (float_of_int domains);
  let t0 = now_ns () in
  let results =
    Telemetry.with_span "engine.batch"
      ~attrs:
        [ ("jobs", string_of_int (List.length requests));
          ("domains", string_of_int domains) ]
      (fun () ->
        (* every job nests under the batch span, on whichever domain
           answers it *)
        let ctx = Telemetry.current_context () in
        Par.map_dyn ~domains
          (fun req ->
            Telemetry.with_context ctx (fun () -> answer ?plan s counters req))
          requests)
  in
  let wall_ms = float_of_int (now_ns () - t0) /. 1e6 in
  (results, stats_of counters ~wall_ms ~domains)

let run_batch ?domains ?plan ?store requests =
  run_jobs ?domains ?plan (session ?store ()) requests
