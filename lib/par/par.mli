(** Minimal fork/join parallelism over OCaml 5 domains.

    One combinator — an order-stable parallel [map] fed by a dynamic
    work queue — used by the batch engine to fan verification jobs out
    over domains; the verification service sizes its worker pool from
    {!default_domains}.  Worker exceptions are re-raised in the caller
    after all domains have joined. *)

val default_domains : unit -> int
(** [POSL_DOMAINS] from the environment, else
    [min 4 (Domain.recommended_domain_count ())]. *)

val map_dyn : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_dyn ~domains f xs] = [List.map f xs], scheduled dynamically: a
    shared mutex-protected index queue feeds idle domains, so uneven
    per-item cost does not leave workers idle.  Order-stable; worker
    exceptions re-raised after join.  [domains <= 1], or an input
    shorter than [2 * domains], degrades to the sequential map.  [f]
    must be safe to run on multiple domains (pure, or racing only on
    its own state). *)
