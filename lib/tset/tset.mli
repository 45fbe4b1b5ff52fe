(** Trace sets: prefix-closed sets of communication traces.

    A specification's trace set T(Γ) is a prefix-closed subset of
    Seq[α(Γ)] (Def. 1 of the paper).  Every constructor below is prefix
    closed {e by construction}; all membership questions are answered
    by one incremental {e monitor} semantics ({!start}/{!step} on a
    context's {!node}), with a denotational reference ({!mem_naive})
    for differential testing. *)

open Posl_ident
open Posl_sets
module Regex = Posl_regex.Regex

type t
(** A trace set: its {!shape}, and the identity of the construction
    that built it.  Every value a constructor returns is new, so two
    parses of one text give structurally equal but distinct values;
    a context keys the nodes it resolves by that identity ({!node}). *)

type shape =
  | All  (** every trace — Example 1's Read ("no restrictions") *)
  | Prs of Regex.t  (** the paper's [h prs R] *)
  | Counting of Counting.t
      (** largest prefix-closed subset of a counting predicate
          (Example 3's P{_RW2}) *)
  | Pointwise of string * (Posl_trace.Trace.t -> bool)
      (** largest prefix-closed subset of a named arbitrary predicate *)
  | Forall_obj of Oset.t * (Oid.t -> t)
      (** per-environment-object projection predicates:
          ∀x ∈ s : h/x ∈ body x (Example 2's Read2, Example 3's
          P{_RW1}).  The body must treat unnamed sort members
          uniformly. *)
  | Conj of t list  (** intersection *)
  | Restrict of Eventset.t * t  (** [{h | h/es ∈ t}] *)
  | Product of part list * Eventset.t
      (** the trace set of a composition (Defs. 4 and 11): observable
          traces over the visible alphabet that extend to a joint trace
          projecting into every part *)

and part = { part_alpha : Eventset.t; part_tset : t }

val shape : t -> shape

(** {1 Constructors} *)

val all : t
val prs : Regex.t -> t
val counting : Counting.t -> t
val pointwise : string -> (Posl_trace.Trace.t -> bool) -> t
val forall_obj : Oset.t -> (Oid.t -> t) -> t
val conj : t list -> t
val restrict : Eventset.t -> t -> t
val product : part list -> Eventset.t -> t
val part : alpha:Eventset.t -> t -> part

(** {1 Contexts}

    All trace-level operations are relative to a {!ctx}: the finite
    universe sample (binder expansion, internal-event sampling), a
    safety cap for product closures, and the memo cache of compiled
    prs-automata.  A context owns its automata — they are relative to
    its universe — and the type is abstract.  The cache is a
    mutex-guarded {!Prs_cache} safe to share across OCaml 5 domains, so
    one context can serve every worker of a parallel batch.  Each
    resolution of an automaton — once per {!node} — counts into the
    process registry: [posl_engine_dfa_compiles_total] when it
    compiles, [posl_engine_dfa_cache_hits_total] when the cache
    answers. *)

type ctx

type compiled_prs
(** A compiled prs-expression: a minimized DFA over the concrete event
    sample together with its symbol index.  Abstract; exposed only as
    the value type of {!prs_cache}. *)

type prs_cache = (Regex.t, compiled_prs) Prs_cache.t
(** The compiled-automata memo.  Domain-safe: all access inside the
    library goes through {!Prs_cache.find_or_compute}. *)

val ctx : ?closure_cap:int -> Universe.t -> ctx
(** A fresh context with an empty compiled-automata cache;
    [closure_cap] defaults to 20_000. *)

val universe : ctx -> Universe.t
val closure_cap : ctx -> int

val prs_cache : ctx -> prs_cache
(** The context's compiled-automata cache, e.g. for
    {!Prs_cache.stats}. *)

exception Closure_overflow of int
(** Raised when the hidden-event closure of a [Product] monitor exceeds
    [closure_cap]; verdicts derived after catching this must be
    reported as bounded, not exact. *)

(** {1 Monitor semantics}

    Monitor states are pure data; {!compare_state} gives structural
    comparison for de-duplication.  A state is "alive": prefix-closed
    languages are exactly the survival languages of monitors. *)

type state

val compare_state : state -> state -> int

val finitary : t -> bool
(** Whether every reachable monitor state is bounded-shape pure data,
    so interning de-duplicates revisited states and exploration past a
    depth bound can terminate by exhaustion.  [false] as soon as the
    monitor contains a [pointwise] member — its states carry the whole
    prefix read so far, so completion would enumerate paths, not
    states.  Used by the antichain inclusion route to decide whether
    running past the depth cut is affordable. *)

(** {1 Interning}

    Each context owns an interning table mapping monitor states to
    dense small-int ids, so exploration frontiers can compare, hash
    and store states as single words instead of structural values.
    Product states additionally record a {e macro view}: the sorted
    id array of their composite states under hidden-event closure,
    which is what antichain subsumption in [posl.bmc] compares.  All
    interning operations are thread-safe (contexts are shared across
    engine worker domains). *)

val intern_state : ctx -> state -> int
(** Find-or-assign the dense id of a state.  Ids are stable for the
    lifetime of the context and start at 0. *)

val state_of_id : ctx -> int -> state
(** Inverse of {!intern_state}.  @raise Invalid_argument on an id
    never returned by this context. *)

val macro_of_id : ctx -> int -> int array option
(** The sorted composite-id array of a [Product] monitor state, or
    [None] for every other state kind.  Subset inclusion on these
    arrays is the antichain subsumption order. *)

val event_id : ctx -> Posl_trace.Event.t -> int
(** Dense id of an event within this context (structurally equal
    events share one id), for indexing successor rows. *)

val intern_counts : ctx -> int * int * int
(** [(states, composites, events)] interned so far in this context. *)

(** {1 Work counters}

    Registry cells declared and bumped here, where the work happens
    (states interned; automata compiled, or served compiled), and read
    by [Posl_engine.Counters]. *)

val interned_states_c : Posl_telemetry.Metrics.counter
val dfa_compiles_c : Posl_telemetry.Metrics.counter
val dfa_hits_c : Posl_telemetry.Metrics.counter

(** {1 Nodes}

    A trace set resolved against a context: its automata, per-event
    classifiers indexed by event id, and resolved sub-monitors, built
    once per (context, trace set) and shared by every question the
    context answers about it.  All stepping goes through nodes. *)

type node

val node : ctx -> t -> node
(** The context's node for a trace set, minted on first use.  Keyed by
    {e physical} identity: monitors reached through [Spec.tset] are
    physically stable, so one spec keeps one node however many
    questions it appears in; a structurally-equal-but-distinct value
    gets its own node (costing only sharing, never soundness).  The
    context holds its nodes weakly and nothing else lets go of them: a
    node lives exactly as long as its trace set.  A spec value a
    re-parse keeps (an unchanged declaration's) keeps its node and the
    rows already filled; an edited spec's old node (its rows,
    classifiers and children) is freed with the last value holding its
    trace set, while the states and events it interned stay in the
    context.  A lookup compares construction identities before it reads
    a key, so resolving a new parse never touches, and never keeps
    alive, the node of a superseded one.  Resolve once per loop, not
    once per step. *)

val start : node -> state option
(** [None] iff even the empty trace is outside the set (degenerate). *)

val step : node -> state -> Posl_trace.Event.t -> state option
(** [None] = the extended trace is outside the set (permanently).
    @raise Invalid_argument on an event that matches the
    specification but lies outside the context's universe sample. *)

val step_id : node -> event_id:int -> int -> Posl_trace.Event.t -> int
(** [step_id n ~event_id sid e] is the interned id of
    [step n (state_of_id c sid) e], or [-1] when dead, memoized in the
    node's successor rows: per state id, an int array by event id.
    Rows persist for the node's lifetime, not the context's, so a
    monitor shared by many inclusion checks steps each state once.
    [event_id] must be [event_id c e] for the node's context [c].  A
    memoized successor is two array reads and takes no lock;
    thread-safe. *)

(** {1 Membership} *)

val mem : ctx -> t -> Posl_trace.Trace.t -> bool

val mem_naive : ctx -> t -> Posl_trace.Trace.t -> bool
(** Denotational reference semantics ([Product] shares the monitor's
    search); for differential testing. *)

(** {1 Utilities} *)

val mentioned : t -> Oid.Set.t * Mth.Set.t * Value.Set.t
(** The identifiers the trace set names: [Spec.adequate_universe] builds
    universes from them, and the product walk of [posl.bmc] treats the
    universe objects that neither side of a question names as
    interchangeable, breaking the symmetry among them.  A [Forall_obj]
    body is read at one witness of its sort: bodies are assumed uniform
    over the sort members they do not name (true of every predicate in
    the paper, where the bound variable ranges over an anonymous
    environment sort).  A [Pointwise] predicate names nothing but may
    single out any object, so the walk breaks no symmetry for a monitor
    that is not {!finitary}. *)

val pp : Format.formatter -> t -> unit
