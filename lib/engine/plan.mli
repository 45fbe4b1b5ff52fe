(** The compositional proof planner (Theorems 7 & 16).

    Sits between {!Job} and the direct checkers: a [Refine]/[Equal]
    query whose operands carry composition provenance
    ({!Posl_core.Spec.parts}) is decomposed — shared component
    recognised by content digest, theorem side conditions checked by
    the exact symbolic procedures, the remaining premise answered as an
    ordinary sub-query through the session's verdict cache and store —
    and the composite verdict is assembled with
    {!Posl_verdict.Verdict.Derived} provenance naming the rule and the
    premises' content addresses.

    A derivation fires only when every premise holds {e exactly}:
    bounded premises do not transfer across the hiding that composition
    performs, and the theorems are one-directional, so a refuted
    premise proves nothing about the composite.  Everything else is a
    {!Fallback} to direct checking. *)

type mode =
  | Auto  (** decompose composite queries when a rule applies *)
  | Off  (** always check directly (the pre-planner behaviour) *)

val pp_mode : Format.formatter -> mode -> unit

val mode_of_string : string -> mode option
(** Recognises ["auto"] and ["off"]. *)

type outcome =
  | Derived of Posl_verdict.Verdict.t
      (** All side conditions and premises hold exactly; the verdict
          carries [Derived] provenance.  Context fields (depth,
          universe digest, elapsed) are {e not} stamped — the engine
          does that, as it does for computed verdicts. *)
  | Fallback of string
      (** The query is composite but no rule applies, a side condition
          failed, or a premise was not an exact hold; the reason is
          human-readable.  The engine checks directly and counts a
          plan fallback. *)
  | Not_composite
      (** Neither operand carries composition provenance (or the query
          kind has no decomposition rule); the planner is silent. *)

type answerer = label:string -> Job.query -> Posl_verdict.Verdict.t
(** How the planner asks for premise verdicts.  The engine passes a
    closure routing the sub-query back through its own [answer] — so
    premises hit the warm cache/store, are recorded under their own
    digests, and may themselves be decomposed recursively. *)

type keys = {
  spec_key : Posl_core.Spec.t -> string option;
      (** {!Digest.spec_key} at the query's universe: recognises shared
          components by content *)
  query_key : Job.query -> Digest.t option;
      (** {!Digest.query_base} at the query's universe: names each
          premise in a derived verdict's provenance *)
}
(** How the planner reads content addresses.  The engine passes its
    session's memoised keys, so a component the session has already
    keyed is not serialized again. *)

val derive : answer:answerer -> keys:keys -> Job.query -> outcome
(** Attempt to answer [query] compositionally.  Emits a
    [plan.decompose] span per attempted decomposition and a
    [plan.premise] span per premise sub-query. *)
