(** Internal events (Defs. 3, 8 and 14 of the paper).

    The composition operators encapsulate objects: all possible
    communication between the encapsulated objects is internal and
    hidden from external observers — including events that appear in
    {e neither} specification alphabet ("we hide more than we can see",
    Fig. 1).  Internal-event sets are therefore computed from object
    sets alone, symbolically. *)

open Posl_ident
open Posl_sets

(** [pair o1 o2] — I(o₁,o₂) of Def. 3: every event between the two
    objects, in either direction.  When [o1 = o2] the set is empty in
    the observable (diagonal-free) universe, which is what makes
    Property 5 (Γ‖Γ = Γ) possible. *)
let pair o1 o2 =
  Eventset.between (Oset.singleton o1) (Oset.singleton o2)

(** [of_set s] — I(S) of Def. 8: the pairwise union of I(o,o′) over
    o, o′ ∈ S, i.e. every event with both end points in [S]. *)
let of_set (s : Oid.Set.t) =
  let os = Oset.of_list (Oid.Set.elements s) in
  Eventset.between os os

(** [alpha0 ~objs' ~objs] — the set α₀ of Def. 14 (properness): events
    that involve an object of [objs′] on at least one side while
    {e neither} side is in [objs].  These are the events a refinement
    step could newly hide; properness w.r.t. ∆ demands α₀ ∩ α(∆) = ∅. *)
let alpha0 ~(objs' : Oid.Set.t) ~(objs : Oid.Set.t) =
  let new_objs = Oset.of_list (Oid.Set.elements (Oid.Set.diff objs' objs)) in
  let outside = Oset.compl (Oset.of_list (Oid.Set.elements objs)) in
  (* One side a new object, the other side anywhere outside objs.  The
     new objects are disjoint from objs by construction, so the two
     rectangles of [between] cover exactly Def. 14's α₀. *)
  Eventset.between new_objs outside
