(** The refinement relation Γ′ ⊑ Γ (Def. 2 of the paper).

    Γ′ refines Γ iff (1) O(Γ) ⊆ O(Γ′) — objects may be added; (2)
    α(Γ) ⊆ α(Γ′) — the alphabet may be expanded; (3)
    ∀h ∈ T(Γ′) : h/α(Γ) ∈ T(Γ) — on the old alphabet, behaviour only
    becomes more deterministic.  Alphabet expansion is what gives
    multiple inheritance of behaviour (two viewpoints share a common
    refinement) and models component upgrade; classical trace
    refinement is the special case with fixed alphabet and objects.

    Clauses 1–2 are decided exactly on the symbolic representation;
    clause 3 over a concrete universe, by the product walk of
    {!Posl_bmc.Bmc}.  The API is verdict-first: {!verdict} is the one
    entrypoint, reporting status, confidence, typed evidence and
    provenance as a {!Posl_verdict.Verdict.t}; {!refines} is a thin
    boolean wrapper over it. *)

module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict

val verdict : ?depth:int -> Tset.ctx -> Spec.t -> Spec.t -> Verdict.t
(** [verdict ?depth ctx gamma' gamma] decides Γ′ ⊑ Γ.  Trace-clause
    verdicts are relative to [ctx]'s universe.  Clause 1–2 failures
    report the [Symbolic] procedure with [Objects_missing] /
    [Events_missing] evidence.  Clause 3 runs the complete inclusion
    walk and reports [Automata] when it exhausts or refutes (the
    lexicographically-least shortest counterexample), [Bounded_search]
    when it is cut; on a closure overflow it falls back to the walk
    cut at [depth] (default 6), reported [Bounded_search].
    Counterexamples are certified against [Tset.mem_naive] before being
    reported ({!Verdict.Uncertified} on disagreement). *)

val refines : ?depth:int -> Tset.ctx -> Spec.t -> Spec.t -> bool
(** [Verdict.is_holds] of {!verdict}. *)
