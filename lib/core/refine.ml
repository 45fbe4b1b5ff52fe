(** The refinement relation Γ′ ⊑ Γ (Def. 2 of the paper).

    Γ′ refines Γ iff

    + O(Γ) ⊆ O(Γ′) — objects may be {e added} (the [new] command);
    + α(Γ) ⊆ α(Γ′) — the alphabet may be {e expanded} with new methods
      and new objects' events;
    + ∀h ∈ T(Γ′) : h/α(Γ) ∈ T(Γ) — on the old alphabet, behaviour only
      becomes more deterministic.

    Clauses 1 and 2 are decided exactly on the symbolic representation.
    Clause 3 is decided over a concrete universe sample by the product
    walk of {!Posl_bmc.Bmc}.  A failed clause 3 always carries a
    counterexample trace of Γ′ whose projection escapes T(Γ). *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Verdict = Posl_verdict.Verdict

(* The internal result of the clause checks; the public API reports it
   as typed {!Verdict.t} evidence. *)
type failure =
  | Objects_missing of Oid.Set.t
  | Alphabet_missing of Eventset.t
  | Trace_escape of Trace.t

type result = (Bmc.confidence, failure) Stdlib.result

(* The clause checks, with the decision procedure that settled the
   question (clause 1–2 failures are symbolic; clause 3 is decided by
   the product walk).  A complete walk that exhausts or refutes is a
   lazy automata-theoretic inclusion decision and is labelled as such
   — same claim, same canonical lex-least witness as a compiled-DFA
   inclusion; only a budget/depth cut is a bounded search.  A
   hidden-event closure can overflow past the depth bound (the
   complete walk explores to exhaustion); the depth-cut walk is then
   the fallback. *)
let decide ctx ~depth (gamma' : Spec.t) (gamma : Spec.t) :
    result * Verdict.procedure =
  Posl_telemetry.Telemetry.with_span "refine.check"
    ~attrs:[ ("depth", string_of_int depth) ]
  @@ fun () ->
  let missing_objs = Oid.Set.diff (Spec.objs gamma) (Spec.objs gamma') in
  if not (Oid.Set.is_empty missing_objs) then
    (Error (Objects_missing missing_objs), Verdict.Symbolic)
  else
    let missing_alpha =
      Eventset.normalise (Eventset.diff (Spec.alpha gamma) (Spec.alpha gamma'))
    in
    if not (Eventset.is_empty missing_alpha) then
      (Error (Alphabet_missing missing_alpha), Verdict.Symbolic)
    else
      let alphabet = Spec.concrete_alphabet (Tset.universe ctx) gamma' in
      let walk ~complete =
        Bmc.check_inclusion_antichain ~complete ctx ~alphabet ~depth
          ~lhs:(Spec.tset gamma') ~proj:(Spec.alpha gamma)
          ~rhs:(Spec.tset gamma)
      in
      match walk ~complete:true with
      | Bmc.Holds Bmc.Exact -> (Ok Bmc.Exact, Verdict.Automata)
      | Bmc.Holds (Bmc.Bounded _ as c) -> (Ok c, Verdict.Bounded_search)
      | Bmc.Refuted h -> (Error (Trace_escape h), Verdict.Automata)
      | exception Tset.Closure_overflow _ ->
          ( (match walk ~complete:false with
            | Bmc.Holds c -> Ok c
            | Bmc.Refuted h -> Error (Trace_escape h)),
            Verdict.Bounded_search )

(* The typed-evidence view of a failure.  [proj] is α(Γ), used to
   attach the projected trace to an escape witness. *)
let evidence_of_failure ~proj = function
  | Objects_missing os -> Verdict.Objects_missing os
  | Alphabet_missing es -> Verdict.Events_missing es
  | Trace_escape h ->
      Verdict.Trace_escape
        { trace = h; projected = Eventset.restrict_trace proj h }

(** [verdict ?depth ctx gamma' gamma] decides Γ′ ⊑ Γ as a structured
    {!Verdict.t} (procedure and depth filled in; the caller adds
    universe digest and elapsed time).  Trace-clause verdicts are
    relative to [ctx]'s universe; counterexamples are certified against
    [Tset.mem_naive] before being reported ({!Verdict.Uncertified} on
    disagreement). *)
let verdict ?(depth = 6) ctx (gamma' : Spec.t) (gamma : Spec.t) : Verdict.t =
  let result, procedure = decide ctx ~depth gamma' gamma in
  let v =
    match result with
    | Ok c -> Verdict.holds ~confidence:c ()
    | Error f ->
        (* Object and alphabet failures are symbolic, hence exact; a
           trace escape is a concrete counterexample, also exact. *)
        Verdict.refuted ~confidence:Exact
          [ evidence_of_failure ~proj:(Spec.alpha gamma) f ]
  in
  Verdict.with_context ~procedure ~depth v

(** Boolean convenience wrapper. *)
let refines ?depth ctx gamma' gamma =
  Verdict.is_holds (verdict ?depth ctx gamma' gamma)
