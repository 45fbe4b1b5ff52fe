(** The process's one worker pool over OCaml 5 domains.

    A {!pool} is N worker domains taking items from one bounded,
    mutex-guarded FIFO queue and running the pool's [run] on each.
    The verification service keeps one for its lifetime; {!map_dyn},
    the batch engine's order-stable parallel [map], makes one per
    call.  The pool knows no clock and no metrics: its owner stamps
    and measures what it queues. *)

val default_domains : unit -> int
(** [POSL_DOMAINS] from the environment, else
    [min 4 (Domain.recommended_domain_count ())]. *)

type 'a pool

type outcome =
  | Accepted
  | Overloaded  (** the queue would exceed [max_queue]; nothing was enqueued *)
  | Stopped  (** {!drain} already ran; nothing was enqueued *)

val pool : workers:int -> max_queue:int -> ('a -> unit) -> 'a pool
(** [pool ~workers ~max_queue run] spawns [workers] domains, each
    running [run] on the oldest queued item, one at a time.
    Exceptions escaping [run] are swallowed (the item's owner signals
    its own failures); the worker keeps going.  [workers = 0] is
    allowed: items then sit queued until {!drain} runs them. *)

val submit_all : 'a pool -> 'a list -> outcome
(** All-or-nothing enqueue: either every item is accepted (atomically,
    under one lock) or none is.  Never blocks.  Keeps a multi-query
    submission from being half-admitted. *)

val depth : 'a pool -> int
(** Items queued and not yet taken by a worker. *)

val drain : 'a pool -> unit
(** Stop admitting, run every queued item (the caller works the queue
    alongside the workers), then join the workers.  Idempotent. *)

val map_dyn : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_dyn ~domains f xs] = [List.map f xs], computed by a pool of
    [domains - 1] workers for the call with the caller working the same
    queue, so uneven per-item cost does not leave domains idle.
    Order-stable.  Once an item fails no later item starts, and the
    exception re-raised is the earliest failing item's in input order:
    the queue is FIFO, so every earlier item has started and runs to
    its end.  [domains <= 1], or an input shorter than [2 * domains],
    degrades to the sequential map.  [f] must be safe to run on
    multiple domains (pure, or racing only on its own state). *)
