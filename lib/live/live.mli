(** Liveness extension — the paper's stated future work (Section 9).

    The formalism is safety-only, and Example 5 shows that refinement
    can introduce deadlocks.  This module adds, within the finite-trace
    setting: deadlock freedom, response obligations ("every open
    trigger stays answerable"), live specifications, a liveness-aware
    refinement relation that rejects Client2-style refinements, and the
    compositional deadlock-preservation analysis that makes Example 5's
    phenomenon checkable.

    All checks are relative to a universe sample and a depth, like the
    trace clause of refinement, and each is a question of [posl.bmc]'s
    product walk; this module keeps no search of its own.  Verdicts
    carry certified witnesses, each the lexicographically-least
    shortest refuting trace. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine

type obligation = {
  name : string;
  trigger : Eventset.t;
  response : Eventset.t;
}

val obligation :
  name:string -> trigger:Eventset.t -> response:Eventset.t -> obligation
(** Whenever a trace has more [trigger] than [response] events, some
    [response] event must remain reachable. *)

type t
(** A live specification: safety plus obligations. *)

val v : ?deadlock_free:bool -> ?obligations:obligation list -> Spec.t -> t
(** [deadlock_free] defaults to [true]. *)

val spec : t -> Spec.t
val obligations : t -> obligation list

val verdict : ?depth:int -> Tset.ctx -> t -> Posl_verdict.Verdict.t
(** Deadlock freedom (when required) and every obligation, as a
    structured verdict (refutations carry [Deadlock] /
    [Unanswerable] evidence).  Mirrors {!Refine.verdict}, with the same
    [depth] default.  An obligation is refuted by a trace of length at
    most [depth] leaving a trigger open where no response is reachable
    within [depth + 1] steps ({!Bmc.find_unanswered}); deadlock
    freedom, when no deadlock is found, is [Bounded depth]. *)

val live : ?depth:int -> Tset.ctx -> t -> bool
(** [Verdict.is_holds] of {!verdict}. *)

val refine : ?depth:int -> Tset.ctx -> t -> t -> Posl_verdict.Verdict.t
(** Live refinement: Def. 2 refinement plus preservation of the
    abstract specification's obligations and deadlock freedom.  A
    refuted safety clause returns the Def. 2 verdict as-is; liveness
    refutations carry the violation evidence. *)

val compositional_deadlock_preservation :
  Tset.ctx ->
  depth:int ->
  gamma':Spec.t ->
  gamma:Spec.t ->
  delta:Spec.t ->
  (unit, Trace.t) result
(** Example 5 as an analysis: given the interface refinement Γ → Γ′,
    does Γ′‖∆ stay deadlock free when Γ‖∆ is?  [Error] carries the
    fresh deadlock. *)
