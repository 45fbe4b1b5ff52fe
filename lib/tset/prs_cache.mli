(** Concurrent memo cache: one mutex-guarded hash table.

    The lock is held for lookup and insert only: {!find_or_compute}
    runs the compute function {e outside} it, so two domains missing
    the same key at once may both compute it — benign duplicated work
    for a memo table of pure values — and the first inserted value
    wins, so all callers observe one representative.

    Designed for the compiled prs-automaton memo of {!Tset.ctx} (hence
    the name), which a context consults once per trace-set node, but
    generic: any ['k] usable with [Hashtbl.hash] and structural
    equality, any pure ['v]. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] outside the lock and caches the result.  When two domains
    race on the same fresh key both compute, but the first insert wins
    and both return the winning value, so every caller of a key
    observes the same physical result once it is cached. *)

val length : ('k, 'v) t -> int

type stats = {
  hits : int;  (** {!find_or_compute} calls answered from the cache *)
  misses : int;
      (** calls that ran the compute function, including a domain that
          lost an insert race *)
}

val stats : ('k, 'v) t -> stats
(** Exact once concurrent callers have quiesced. *)
