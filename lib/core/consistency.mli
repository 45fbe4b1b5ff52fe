(** Consistency of partial specifications (Section 7's discussion of
    Boiten et al.): two specifications are consistent when they have a
    common refinement.  With prefix-closed trace sets the notion
    trivialises — {ε} always refines both — so the interesting question
    is {e non-trivial} consistency: does the {e weakest} common
    refinement (the composition) admit any behaviour beyond the empty
    trace?  And, per the paper, the question is externally answerable
    only for composable specifications.

    The API is verdict-first, mirroring {!Refine}: {!verdict} is the
    one entrypoint.  It takes no depth: prefix closure makes the
    witness search one event deep, so every verdict is exact. *)

module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict

val weakest_common_refinement :
  Spec.t -> Spec.t -> (Spec.t, Compose.composability_failure) result
(** Lemma 6's least upper bound for same-object interface
    specifications; Def. 11 composition otherwise (requires
    composability). *)

val verdict : Tset.ctx -> Spec.t -> Spec.t -> Verdict.t
(** Non-trivial consistency: holds with a [Consistency_witness] trace
    (the first event [Bmc.enabled] reports after ε, certified against
    [Tset.mem_naive] before being reported),
    refuted when only ε is common, vacuous with the composability
    failure as evidence when not externally determinable.  The
    provenance names the procedure: [Symbolic] for a composability
    failure, [Automata] otherwise; depth and universe digest are left
    to the caller. *)

val consistent : Tset.ctx -> Spec.t -> Spec.t -> bool
(** [Verdict.is_holds] of {!verdict}. *)

val common_refinement_bound :
  ?depth:int ->
  Tset.ctx ->
  delta:Spec.t ->
  Spec.t ->
  Spec.t ->
  Verdict.t option
(** Any ∆ refining both specifications refines their composition; this
    checks that bound for a given ∆ ([None] when not composable). *)
