(** Deterministic finite automata over an integer-indexed alphabet.

    The exact decision procedures for trace-set inclusion (the paper's
    Def. 2, clause 3) and for the observable behaviour of compositions
    reduce to standard language operations once trace sets are
    concretised over a finite universe.  DFAs here are total: every
    state has a transition on every symbol. *)

type t

val make :
  n_states:int ->
  n_syms:int ->
  start:int ->
  accept:bool array ->
  delta:int array array ->
  t
(** [make] validates the shape ([delta.(q).(sym)] is the successor);
    raises [Invalid_argument] on malformed input. *)

val n_states : t -> int
val n_syms : t -> int
val start : t -> int
val accept_state : t -> int -> bool
val step : t -> int -> int -> int
val run : t -> int list -> int
val accepts : t -> int list -> bool

val empty : n_syms:int -> t
(** The automaton of the empty language. *)

val all : n_syms:int -> t
(** The automaton of all words. *)

val complement : t -> t
val inter : t -> t -> t
val union : t -> t -> t

val product : combine:(bool -> bool -> bool) -> t -> t -> t
(** General product; [combine] selects the boolean combination of the
    two languages. *)

val reachable : t -> bool array

val shortest_accepted : t -> int list option
(** A shortest accepted word ([None] iff the language is empty) — the
    counterexample extractor. *)

val is_empty : t -> bool

val included : t -> t -> (unit, int list) result
(** [included a b] decides L(a) ⊆ L(b); [Error w] is a shortest word
    accepted by [a] but not [b]. *)

val lift : n_syms:int -> map:(int -> int option) -> t -> t
(** Inverse-homomorphism lift to a larger alphabet: symbols mapped to
    [None] self-loop (are ignored).  The result recognises
    [{h | h/sub ∈ L(d)}] — the projection-membership sets at the heart
    of refinement clause 3 and of the composition rule. *)

val prefix_close : t -> t
(** Make accepting every state from which an accepting state is
    reachable: the automaton of pref(L), realising the paper's [prs]
    operator.  In the result, rejection is permanent. *)

val minimize : t -> t
(** Remove unreachable states, then Moore partition refinement. *)
