(** Check jobs: the unit of work of the batch verification engine.

    A {!query} is one of the five verification questions the CLI
    answers — refinement, composability, properness, deadlock and
    trace-set equality — over already-elaborated specifications.
    {!run} computes the {!verdict} a single-query CLI invocation would
    report, so batch answers and single-shot answers coincide by
    construction. *)

module Spec = Posl_core.Spec
module Bmc = Posl_bmc.Bmc
module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict

type query =
  | Refine of { refined : Spec.t; abstract : Spec.t }
      (** Γ′ ⊑ Γ (Def. 2) *)
  | Compose of { left : Spec.t; right : Spec.t }
      (** composability (Def. 10) *)
  | Proper of { refined : Spec.t; abstract : Spec.t; context : Spec.t }
      (** properness (Def. 14) *)
  | Deadlock of { left : Spec.t; right : Spec.t }
      (** deadlock search on the composition; holds = deadlock-free *)
  | Equal of { left : Spec.t; right : Spec.t }
      (** trace-set equality *)

(** Labelled constructors, one per query kind — the stable way to
    build queries (callers need not pattern-build the variant records,
    and positional mix-ups of same-typed specs are impossible). *)

val refine : refined:Spec.t -> abstract:Spec.t -> query
val compose : left:Spec.t -> right:Spec.t -> query
val proper : refined:Spec.t -> abstract:Spec.t -> context:Spec.t -> query
val deadlock : left:Spec.t -> right:Spec.t -> query
val equal : left:Spec.t -> right:Spec.t -> query

type verdict = Verdict.t
(** Job verdicts are ordinary structured verdicts: typed evidence plus
    provenance (procedure, depth, universe digest, elapsed wall-clock).
    {!run} stamps every verdict with the universe's content address so
    cached and fresh results agree as values ({!Verdict.equal} ignores
    the elapsed time). *)

val kind : query -> string
(** ["refine" | "compose" | "proper" | "deadlock" | "equal"]. *)

val specs : query -> Spec.t list
(** The specifications the query mentions, in positional order. *)

val describe : query -> string
(** E.g. ["Read2 ⊑ Read"], ["Client ‖ WriteAcc"]. *)

exception Overflow of { query : string; cap : int }
(** A hidden-event closure of the query's monitors grew past the
    context's cap of [cap] composites ({!Tset.Closure_overflow}); the
    query, named by {!describe}, has no verdict. *)

val run : Tset.ctx -> depth:int -> query -> verdict
(** Decide the query over [ctx]'s universe.  Deterministic: equal
    inputs produce {!Verdict.equal} verdicts.
    @raise Overflow when a closure exceeds the cap. *)

val universe_digest : Posl_ident.Universe.t -> string
(** MD5 (hex) over the universe's canonical rendering — the
    [universe_digest] provenance field {!run} stamps on verdicts. *)

val pp_verdict : Format.formatter -> verdict -> unit
