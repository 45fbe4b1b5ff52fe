(** Antichain of visited (lhs state, rhs macro-state) pairs.

    The subsumption order for on-the-fly inclusion checking: (a, S)
    subsumes (a, T) when S ⊆ T, because macro stepping of the
    subset-constructed rhs monitor is monotone — any violation
    reachable from the larger macro is reachable from the smaller.
    Only ⊆-minimal macro-states per lhs state are retained, which is
    sound both for refutation and for [Exact]-on-exhaustion.

    The order does not read how many symmetric objects a pair has in use
    (see [Bmc]): a pair first reached with objects 0 to m − 1 in use is
    invariant under renaming the others, so the steps the walk takes
    from it reach a relabelling of everything reachable from it,
    whatever count a later, subsumed arrival carries.  Keying pairs by
    that count as well would visit each state once per count (28 → 56
    pairs on [fleet.manifest] without the planner). *)

type t

type stats = {
  kept : int;  (** pairs currently resident *)
  pruned : int;  (** candidates subsumed on arrival *)
  dropped : int;  (** residents evicted by a smaller arrival *)
}

val create : unit -> t

val check_add : t -> int -> Bitset.t -> [ `Added | `Subsumed ]
(** [check_add ac lhs_id macro] admits the pair unless a resident
    (lhs_id, S) with S ⊆ macro subsumes it; admission evicts resident
    supersets of [macro]. *)

val stats : t -> stats
