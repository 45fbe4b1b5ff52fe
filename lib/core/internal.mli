(** Internal events (Defs. 3, 8 and 14 of the paper).

    Composition encapsulates objects: all possible communication
    between encapsulated objects is internal and hidden from external
    observers — including events in {e neither} specification alphabet
    ("we hide more than we can see", Fig. 1).  Internal-event sets are
    computed from object sets alone, symbolically and exactly. *)

open Posl_ident
open Posl_sets

val pair : Oid.t -> Oid.t -> Eventset.t
(** I(o₁,o₂) of Def. 3: every event between the two objects, in either
    direction.  Empty when [o1 = o2] (diagonal-free universe), which is
    what makes Property 5 (Γ‖Γ = Γ) possible. *)

val of_set : Oid.Set.t -> Eventset.t
(** I(S) of Def. 8: every event with both end points in [S]. *)

val alpha0 : objs':Oid.Set.t -> objs:Oid.Set.t -> Eventset.t
(** The set α₀ of Def. 14 (properness): events involving an object of
    [objs'] on at least one side while neither side is in [objs] — the
    events a refinement step could newly hide. *)
