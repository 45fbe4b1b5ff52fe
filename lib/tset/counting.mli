(** Counting constraints over event classes.

    Example 3 of the paper constrains traces with arithmetic over event
    counts: P{_RW2}(h) ≜ (♯(h/OW) − ♯(h/CW) = 0 ∨ ♯(h/OR) − ♯(h/CR) = 0)
    ∧ ♯(h/OW) − ♯(h/CW) ≤ 1.  A constraint is a boolean combination of
    comparisons of linear expressions over the counts of symbolic event
    classes; the induced trace set is the largest prefix-closed subset
    (membership requires every prefix to satisfy the formula).

    The incremental state is the vector of {e linear-expression
    values}, not raw counts: expression values change by a per-event
    constant, so they are Markovian and stay finite whenever the
    specification bounds them — which keeps monitor state spaces finite
    and lets exploration exhaust them exactly. *)

open Posl_sets

type t

type linexp = (int * int) list
(** Coefficient × class index. *)

type exp_prop
(** Formulas under construction (builder-level). *)

(** Builder DSL:

    {[
      let open Counting.Build in
      let b = create () in
      let ow = cls b (Eventset...) and cw = cls b (Eventset...) in
      finish b (count ow -- count cw <=. 1)
    ]} *)
module Build : sig
  type builder

  val create : unit -> builder

  val cls : builder -> Eventset.t -> int
  (** Register an event class; returns its index. *)

  val count : int -> linexp
  val ( -- ) : linexp -> linexp -> linexp
  val ( <=. ) : linexp -> int -> exp_prop
  val ( >=. ) : linexp -> int -> exp_prop
  val ( =. ) : linexp -> int -> exp_prop
  val ( &&. ) : exp_prop -> exp_prop -> exp_prop
  val ( ||. ) : exp_prop -> exp_prop -> exp_prop
  val not_ : exp_prop -> exp_prop
  val true_ : exp_prop
  val false_ : exp_prop

  val normalise_linexp : linexp -> linexp
  (** Merge duplicate class indices, drop zero coefficients, sort. *)

  val finish : builder -> exp_prop -> t
end

val classes : t -> Eventset.t array
val n_classes : t -> int

val initial : t -> int array
(** The expression-value vector of the empty trace (all zeros). *)

val delta : t -> Posl_trace.Event.t -> int array
(** What one event adds to each expression value: a constant per
    event, which is what lets a monitor classify an event once. *)

val bump : t -> int array -> Posl_trace.Event.t -> int array
(** Advance the vector by one event. *)

val holds : t -> int array -> bool

val satisfied_by : t -> Posl_trace.Trace.t -> bool
(** Whole-trace (pointwise, non-incremental) evaluation — the reference
    semantics for differential tests.  Note: this checks the formula at
    the {e end} of the trace only; the trace-set semantics additionally
    quantifies over prefixes (see {!Tset}). *)

val mentioned :
  t ->
  Posl_ident.Oid.Set.t * Posl_ident.Mth.Set.t * Posl_ident.Value.Set.t

val pp : Format.formatter -> t -> unit
