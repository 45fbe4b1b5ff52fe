(** Lock-striped concurrent memo cache.

    A fixed array of [stripes] shards, each a mutex-guarded hash table;
    a key lives in shard [Hashtbl.hash key land (stripes - 1)].  Lock
    hold times are lookup/insert only: {!find_or_compute} runs the
    compute function {e outside} every lock, so two domains missing the
    same key at once may both compute it — benign duplicated work for a
    memo table of pure values, counted by the [duplicates] statistic,
    and the first inserted value wins so all callers observe one
    representative.

    Designed for the compiled prs-automaton memo of {!Tset.ctx} (hence
    the name), but generic: any ['k] usable with [Hashtbl.hash] and
    structural equality, any pure ['v]. *)

type ('k, 'v) t

val create : ?stripes:int -> unit -> ('k, 'v) t
(** [stripes] defaults to 16 and is rounded up to a power of two
    (minimum 1) so stripe selection is a mask, not a division. *)

val stripes : ('k, 'v) t -> int

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Lookup only; counts neither a hit nor a miss. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute t k f] returns the cached value for [k], or runs
    [f ()] outside the stripe lock and caches the result.  When two
    domains race on the same fresh key both compute, but the first
    insert wins and both return the winning value, so every caller of
    a key observes the same physical result once it is cached. *)

val length : ('k, 'v) t -> int
(** Total entries across all stripes (takes each stripe lock briefly). *)

val clear : ('k, 'v) t -> unit
(** Empty every stripe.  Statistics are not reset. *)

(** {1 Statistics}

    All counters are atomics bumped outside/inside the stripes; a
    {!stats} snapshot is exact once concurrent callers have quiesced.
    Contended acquisitions also count into the process registry as
    [posl_engine_dfa_contended_total]. *)

type stats = {
  hits : int;  (** {!find_or_compute} calls answered from the cache *)
  misses : int;  (** calls that ran the compute function *)
  duplicates : int;
      (** computed values discarded because another domain inserted the
          same key first — benign duplicated compilation *)
  contended : int;
      (** stripe-lock acquisitions that found the lock held (an
          uncontended acquisition never blocks) *)
}

val stats : ('k, 'v) t -> stats
val pp_stats : Format.formatter -> stats -> unit
