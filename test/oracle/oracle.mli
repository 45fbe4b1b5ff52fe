(** Differential oracles for the product walk of [posl.bmc].

    Each oracle answers one of the walk's questions by a different
    procedure: compiled DFAs for refinement clause 3 and trace-set
    equality, a serial level-wise exploration with structural
    de-duplication for depth-cut inclusion, and trace enumeration with
    the denotational semantics ([Tset.mem_naive]) for deadlock and
    response obligations.  None uses the walk's interning, successor
    rows or antichain. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec
module Verdict = Posl_verdict.Verdict

val compile :
  ?max_states:int ->
  Tset.ctx ->
  Event.t array ->
  Tset.t ->
  Posl_automata.Dfa.t option
(** The monitor's reachable state space over a concrete alphabet as a
    DFA: [Some dfa] is an {e exact} automaton of the trace set
    restricted to traces over the given events (state 0 a rejecting
    sink, all others accepting); [None] when the space exceeds
    [max_states] (default 200_000) or a closure overflows. *)

val inclusion :
  Tset.ctx ->
  alphabet:Event.t array ->
  proj:Eventset.t ->
  lhs:Tset.t ->
  rhs:Tset.t ->
  (unit, Trace.t) result option
(** Inclusion ([h/proj ∈ rhs] for every [lhs] trace) on compiled DFAs,
    unbounded: [Error h] with the lexicographically-least shortest
    violating trace; [None] when either monitor does not compile. *)

val inclusion_levelwise :
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  lhs:Tset.t ->
  proj:Eventset.t ->
  rhs:Tset.t ->
  Trace.t Bmc.verdict
(** Depth-cut inclusion ([h/proj ∈ rhs] for every [lhs] trace up to
    [depth]) by level-wise breadth-first search over structurally
    de-duplicated state pairs.  [Exact] when the frontier dies out
    before [depth]; refutations are the lexicographically-least
    shortest violating trace. *)

type route =
  | Automata
      (** compiled-DFA inclusion; [Invalid_argument] when a monitor
          does not compile *)
  | Bounded  (** {!inclusion_levelwise}, labelled [Bounded_search] *)
  | Legacy_auto  (** [Automata], falling back to [Bounded] *)

val refine : route -> ?depth:int -> Tset.ctx -> Spec.t -> Spec.t -> Verdict.t
(** Γ′ ⊑ Γ with clause 3 decided by the given route, reported like
    [Refine.verdict]: [Symbolic] for clause 1–2 failures, [Automata]
    for a compiled decision, [Bounded_search] for the level-wise one;
    depth defaults to 6. *)

val tset_equal : Tset.ctx -> depth:int -> Spec.t -> Spec.t -> Verdict.t
(** Trace-set equality reported like [Theory.tset_equal]: compiled DFAs
    both ways ([Automata]) when both monitors compile, the depth-cut
    {!Bmc.check_equal} ([Bounded_search]) otherwise. *)

val first_stuck :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> Trace.t option
(** The first trace, in (length, alphabet) order, of length below
    [depth] that no event of the alphabet extends, by enumeration
    ({!Bmc.enumerate}) and [Tset.mem_naive]; [Some ε] when even ε is
    outside the set. *)

val first_unanswered :
  Tset.ctx ->
  alphabet:Event.t array ->
  depth:int ->
  trigger:Eventset.t ->
  response:Eventset.t ->
  Tset.t ->
  Trace.t option
(** The first trace, in (length, alphabet) order, of length 1 to
    [depth] that leaves a trigger open (triggers minus responses, the
    count clipped at 0 after each event, above 0) and has no member
    extension of 1 to [depth + 1] events that ends in a response, by
    enumeration ({!Bmc.enumerate}) and [Tset.mem_naive]. *)

val count_members :
  Tset.ctx -> alphabet:Event.t array -> depth:int -> Tset.t -> int array
(** Member traces by length, [0] to [depth], over the alphabet, by the
    recursion of {!Bmc.enumerate} ([Tset.start], then [Tset.step] on
    structural states) building no trace: each length's states are
    merged up to [Tset.compare_state], each with the number of members
    reaching it.  No interning and no successor rows. *)
