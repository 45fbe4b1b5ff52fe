(** State-space exploration over trace-set monitors.

    The verification questions of the paper that are not purely
    set-algebraic all reduce to reachability over products of monitors:
    projected trace-set inclusion (Def. 2 clause 3), trace-set equality
    (Example 6), deadlock (Examples 4–5), and the response obligations
    of the liveness extension ([posl.live]).  One breadth-first product
    walk over interned monitor states answers all of them, and counts
    states ({!count_states}); when the reachable space is exhausted, the
    verdict holds for {e all} depths over the given alphabet and is
    reported {!Exact}.  {!enabled} and {!count_traces} read the walk's
    successor rows ([Tset.step_id]); {!enumerate} steps structural
    states, as the reference the tests compare the walk against.

    Every counterexample ({!check_inclusion_antichain}, {!check_equal},
    {!find_deadlock}, {!find_unanswered}) is {e self-certifying}: it is
    replayed through the denotational reference semantics
    [Tset.mem_naive] before being reported, and
    {!Posl_verdict.Verdict.Uncertified} is raised if the replay
    disagrees with the exploration.  Each is the lexicographically-least
    shortest one.

    {2 Symmetric objects}

    A universe sample pads the objects a file's specs mention with
    fresh ones, and one question often mentions fewer still.  The
    escape questions ({!check_inclusion_antichain}, {!check_equal}) and
    the stuck question ({!find_deadlock}) explore each orbit of the
    objects they cannot tell apart once.  Those {e symmetric objects}
    are the universe objects, in universe order, that neither monitor
    ([Tset.mentioned]) nor the projection ([Eventset.mentioned]) names,
    when both monitors are [Tset.finitary] (a [Pointwise] predicate may
    single out any object) and the concrete alphabet is closed under
    swapping any two of them and lists every event that uses the later
    of two but not the earlier after its swap — the order
    [Eventset.sample] produces.  Another order, or fewer than two such
    objects, keeps the full walk.

    The walk then takes only steps that bring symmetric objects into
    use in universe order.  It is exact, for three reasons:

    - the walk's graph is invariant under permutations of the symmetric
      objects, so every violation has a representative in first-use
      order, of the same length;
    - the lexicographically-least shortest violating trace is such a
      representative, because an out-of-order introduction has an
      alphabet-earlier renamed twin: witnesses do not change;
    - a state first reached with some symmetric objects in use is
      invariant under permutations of the others, so a pair is visited
      once whatever count of objects in use it arrives with, and a
      dominated pair's violations map to the dominating pair's by
      monotonicity and symmetry: exhaustion stays [Exact].

    {!count_states} (the state-count metric) and {!find_unanswered}
    (whose response probes start at states whose objects in use they do
    not know) keep the full walk, as do {!enabled} and
    {!count_traces}. *)

module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset

type confidence = Posl_verdict.Verdict.confidence =
  | Exact  (** state space exhausted: exact for the sampled universe *)
  | Bounded of int  (** exploration cut at this depth *)

val pp_confidence : Format.formatter -> confidence -> unit

type 'a verdict = Holds of confidence | Refuted of 'a

val pp_verdict :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a verdict -> unit

val check_inclusion_antichain :
  ?complete:bool ->
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  lhs:Tset.t ->
  proj:Eventset.t ->
  rhs:Tset.t ->
  Trace.t verdict
(** Does every trace of [lhs] over [alphabet] satisfy [h/proj ∈ rhs]?
    Clause 3 of Def. 2 is [lhs = T(Γ′), proj = α(Γ), rhs = T(Γ)].
    Decided on the fly over interned state ids with memoized successor
    rows, pruning frontier pairs whose rhs macro-state ([Product]
    subset construction) is subsumed by an already-visited one
    ({!Antichain}), and bringing symmetric objects into use in universe
    order only.  Refutations are the lexicographically-least shortest
    violating trace, a genuine [lhs] trace.

    With [complete] (default [true]), the walk continues past [depth]
    until the frontier is exhausted ([Exact]) or more than 200_000
    pairs have been admitted ([Bounded depth]); with [~complete:false],
    and always for monitors that are not {!Tset.finitary}, it cuts at
    [depth] — [Exact] then means the frontier emptied first. *)

val check_equal :
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  left:Tset.t ->
  right:Tset.t ->
  (Trace.t * [ `Left_only | `Right_only ]) verdict
(** Bounded trace-set equality over the same alphabet: the depth-cut
    inclusion walk both ways. *)

val find_deadlock :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> Trace.t option
(** A shortest reachable trace after which no event of the alphabet is
    enabled, if any — the lexicographically-least one of length below
    [depth].  Symmetric objects are brought into use in universe order
    only. *)

val find_unanswered :
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  trigger:Eventset.t ->
  response:Eventset.t ->
  Tset.t ->
  Trace.t verdict
(** A response obligation: [Refuted h] for the first trace [h] of
    length at most [depth] that leaves a trigger open (triggers minus
    responses along [h], the count clipped at 0 after each event, is
    above 0) at a state from which no response event is reachable
    within [depth + 1] steps.  [Holds Exact] when the (state, open
    count) pairs are exhausted first, [Holds (Bounded depth)] when the
    walk is cut. *)

val enabled :
  Tset.ctx -> alphabet:Event.t array -> Tset.t -> Trace.t -> Event.t list
(** The events that may extend [h] within the trace set, in alphabet
    order; [h] is replayed through the successor rows. *)

val count_traces :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> int array
(** Member-trace counts per length [0..depth], by dynamic programming
    over the successor rows of interned states (no trace explosion). *)

val enumerate :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> Trace.t list
(** All member traces up to [depth], stepping structural states
    ([Tset.step]) — the reference for tests and tiny examples only. *)

val count_states :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> int
(** Reachable monitor states within [depth] — the state-count metric of
    the performance experiments. *)

(** {1 Work counters}

    Registry cells bumped by the antichain inclusion walk (frontier
    pairs admitted, pairs pruned by subsumption), and read by
    [Posl_engine.Counters]. *)

val antichain_pairs_c : Posl_telemetry.Metrics.counter
val antichain_prunes_c : Posl_telemetry.Metrics.counter
