(** The typed evidence layer: one structured verdict for every check.

    Every claim the reproduction makes — refinement, composability,
    properness, deadlock freedom, trace-set equality, the theorem
    checkers — is reported as a {!t}: a three-valued {!status}, the
    {!confidence} lattice of the underlying decision procedure, typed
    {!evidence} (counterexample traces, missing object/event sets,
    equality witnesses, vacuity reasons — never pre-rendered strings),
    and {!provenance} (which procedure ran, at what depth, over which
    universe, and how long it took).

    Verdicts are {e self-certifying}: producers replay every
    counterexample trace against the denotational reference semantics
    ([Tset.mem_naive]) before reporting it — see {!certify} — so a
    wrong checker cannot emit a plausible-looking witness.

    The canonical JSON serialization ({!Json}, {!to_json}) is the single
    machine-readable schema of the CLI, for single queries and batch
    runs alike. *)

open Posl_ident
open Posl_sets
module Trace = Posl_trace.Trace

(** {1 The confidence lattice} *)

type confidence =
  | Exact  (** state space exhausted: exact for the sampled universe *)
  | Bounded of int  (** exploration cut at this depth *)

val meet : confidence -> confidence -> confidence
(** Greatest lower bound: [Exact] is top; two bounds meet at the
    smaller depth.  Multi-clause checks combine their clauses'
    confidences with [meet]. *)

val pp_confidence : Format.formatter -> confidence -> unit

(** {1 Provenance} *)

type procedure =
  | Symbolic  (** exact set algebra on the symbolic representation *)
  | Automata  (** DFA compilation and language inclusion *)
  | Bounded_search  (** bounded state-space exploration *)
  | Derived of { rule : string; premises : string list }
      (** combined from already-answered sub-queries by a compositional
          proof rule of the paper ([rule] names it, e.g. ["theorem7"]);
          [premises] are the content digests ({!Posl_engine.Digest})
          of the sub-queries whose exact verdicts license the
          conclusion — re-answering them replays the derivation *)

val pp_procedure : Format.formatter -> procedure -> unit

val equal_procedure : procedure -> procedure -> bool
(** Structural equality; [Derived] compares rule and premise digests. *)

type provenance = {
  procedure : procedure option;
  depth : int option;  (** the depth bound handed to the checker *)
  universe_digest : string option;
      (** content address of the sampled universe the verdict is
          relative to *)
  elapsed_ms : float;  (** wall clock; ignored by {!equal} *)
}

val provenance :
  ?procedure:procedure ->
  ?depth:int ->
  ?universe_digest:string ->
  ?elapsed_ms:float ->
  unit ->
  provenance

val no_provenance : provenance

(** {1 Evidence} *)

type side = [ `Left_only | `Right_only ]

type evidence =
  | Trace_escape of { trace : Trace.t; projected : Trace.t }
      (** a genuine trace of the refined (or component) side whose
          projection on the abstract alphabet is outside the abstract
          trace set *)
  | Objects_missing of Oid.Set.t
      (** O(Γ) \ O(Γ′): abstract objects dropped by a refinement *)
  | Events_missing of Eventset.t
      (** α(Γ) \ α(Γ′): abstract events dropped by a refinement *)
  | Equality_witness of {
      trace : Trace.t;
      side : side;
      left : string;
      right : string;  (** the compared specifications, by name *)
    }
  | Deadlock of Trace.t
      (** a reachable trace after which no event is enabled *)
  | Unanswerable of { obligation : string; trace : Trace.t }
      (** a reachable trace with an open trigger from which no
          response event is reachable *)
  | Not_composable of {
      offending : Eventset.t;
      side : [ `Left_sees_right_internal | `Right_sees_left_internal ];
    }
  | Improper of {
      alpha0 : Eventset.t;
      offending : Eventset.t;
      context : string;  (** the context specification, by name *)
    }
  | Objects_differ of { left_only : Oid.Set.t; right_only : Oid.Set.t }
  | Alphabets_differ of { left_only : Eventset.t; right_only : Eventset.t }
  | Consistency_witness of Trace.t
      (** a non-empty common trace: positive evidence of non-trivial
          consistency *)
  | Law_violation of { law : string; trace : Trace.t }
      (** a pointwise algebraic law failed on this trace *)
  | Premise_unmet of string
      (** vacuity reason: the proposition says nothing here *)
  | Note of string
      (** human-readable context (never a witness on its own) *)

val pp_evidence : Format.formatter -> evidence -> unit

val equal_evidence : evidence -> evidence -> bool
(** Typed, per-kind equality: traces by {!Trace.equal}, identifier sets
    by set equality, symbolic event sets by denotation
    ({!Posl_sets.Eventset.equal}) — so evidence rebuilt from its JSON
    serialization compares equal to the original even when internal
    tree shapes or rectangle lists differ. *)

val evidence_traces : evidence -> Trace.t list
(** The counterexample/witness traces the evidence carries (empty for
    set-level and textual evidence). *)

(** {1 Verdicts} *)

type status = Holds | Refuted | Vacuous

type t = {
  status : status;
  confidence : confidence option;
      (** [None] when no state space was explored and the check is not
          exact (e.g. a symbolic failure) *)
  evidence : evidence list;
  provenance : provenance;
}

val holds :
  ?confidence:confidence ->
  ?evidence:evidence list ->
  ?provenance:provenance ->
  unit ->
  t

val refuted :
  ?confidence:confidence -> ?provenance:provenance -> evidence list -> t

val vacuous : ?provenance:provenance -> string -> t
(** [Vacuous] status with a [Premise_unmet] evidence item. *)

val is_holds : t -> bool
val is_refuted : t -> bool
val is_vacuous : t -> bool

val to_bool : t -> bool
(** [true] iff the verdict holds ([Vacuous] maps to [false]). *)

val both : t -> t -> t
(** The join used by multi-clause checks: a refutation dominates, then
    vacuity, and two holding verdicts {!meet} their confidences and
    concatenate their evidence. *)

val all : t list -> t
(** Fold of {!both} over the list; [all [] = holds ~confidence:Exact]. *)

val equal : t -> t -> bool
(** Structural equality of status, confidence, evidence and
    provenance, {e ignoring} [elapsed_ms] — so a cache-hit verdict is
    equal to a freshly computed one as a value. *)

val equal_modulo_provenance : t -> t -> bool
(** Status, confidence and evidence only — the agreement relation of
    the planner soundness gate: a [Derived] verdict must be
    [equal_modulo_provenance] to the directly computed one (their
    provenances necessarily differ: one says which rule fired, the
    other which procedure ran). *)

val changed : t -> t -> bool
(** [changed old now] is the flip relation of the watch loop: true iff
    the verdict moved in a way a user should be told about — status,
    confidence or evidence differ.  Provenance and [elapsed_ms] churn
    (cache hit vs recompute, a different planner rule firing) is not a
    flip.  Negation of {!equal_modulo_provenance}. *)

val witness_traces : t -> Trace.t list
(** Every counterexample/witness trace carried by the evidence. *)

val with_context :
  ?procedure:procedure ->
  ?depth:int ->
  ?universe_digest:string ->
  ?elapsed_ms:float ->
  t ->
  t
(** Fill provenance fields left unset by the producer ([elapsed_ms]
    always overwrites; the optional fields only fill [None]). *)

(** {1 Certification} *)

exception Uncertified of string
(** A counterexample failed to replay against the reference semantics:
    the checker that produced it is wrong.  Raised, never caught, by
    the library — a verdict that cannot certify must not be reported. *)

val uncertified : ('a, Format.formatter, unit, 'b) format4 -> 'a

val certify : replay:(evidence -> bool) -> t -> t
(** [certify ~replay v] applies [replay] to every evidence item of a
    refuted verdict and returns [v] unchanged if all replay; raises
    {!Uncertified} otherwise.  Producers pass a closure replaying their
    witness kinds through [Tset.mem_naive]; [replay] must return [true]
    for evidence kinds that carry no replayable witness. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Canonical pretty-printing: ["holds [exact]"],
    ["fails: deadlock after ⟨…⟩"], ["vacuous (premise …)"]. *)

val to_string : t -> string
(** {!pp} flattened to a single line (whitespace runs collapsed). *)

(** {1 JSON} *)

module Json = Posl_json.Json
(** The JSON document model every serializer below builds on. *)

val json_of_confidence : confidence option -> Json.t
val json_of_evidence : evidence -> Json.t

val json_of_procedure : procedure -> Json.t
(** Direct procedures as plain strings; [Derived] as an object
    [{"kind":"derived","rule":…,"premises":[…]}]. *)

val json_of_provenance : provenance -> Json.t

val to_json : t -> Json.t
(** The documented verdict schema:
    [{"status", "holds", "confidence", "evidence", "provenance"}] —
    see the README's "Verdict schema" section.  Evidence payloads are
    structural (events as identifier objects, symbolic sets as their
    rectangle lists), so {!of_json} can rebuild the typed value. *)

val of_json : Json.t -> (t, string) result
(** The inverse of {!to_json}: rebuild a typed verdict from its JSON
    document.  [of_json (to_json v)] produces a verdict {!equal} to
    [v] (elapsed time aside, which {!equal} ignores anyway but which
    also survives up to the serializer's millisecond rounding).  The
    persistent verdict store refuses any record that fails this
    round-trip. *)

val of_string : string -> (t, string) result
(** {!Json.of_string} composed with {!of_json}. *)
