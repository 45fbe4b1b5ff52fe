(** Nondeterministic finite automata with ε-transitions.

    The intermediate form between the regex layer and DFAs, and the
    home of two operations the formalism needs constantly: {e
    projection} (restricting a language to a sub-alphabet by erasing
    symbols — Def. 2's h/α(Γ)) and {e hiding} (deleting internal events
    in composition — Defs. 4 and 11), both ε-replacements. *)

module IS : Set.S with type elt = int

type t

val make :
  n_states:int ->
  n_syms:int ->
  start:int list ->
  accept:bool array ->
  delta:(int * int) list array ->
  eps:int list array ->
  t
(** [delta.(q)] lists [(symbol, successor)] pairs; [eps.(q)] lists
    ε-successors. *)

val n_states : t -> int
val n_syms : t -> int
val eps_closure : t -> IS.t -> IS.t
val step : t -> IS.t -> int -> IS.t
val accepts : t -> int list -> bool

val prefix_close : t -> t
(** Accepting := co-reachable from accepting: the automaton of
    pref(L). *)

val project : n_syms':int -> keep:(int -> int option) -> t -> t
(** Alphabet homomorphism; symbols mapped to [None] become ε.  This is
    trace projection when [keep] keeps exactly the target alphabet, and
    hiding when it erases exactly the internal symbols. *)

val to_dfa : t -> Dfa.t
(** Subset construction; the result is total. *)
