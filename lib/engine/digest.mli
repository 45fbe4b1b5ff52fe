(** Content-addressed keys for check jobs.

    A key is the MD5 of a canonical serialization of (query kind,
    specification bodies, universe sample), with the depth appended —
    together the complete input of {!Job.run} — so the verdict cache
    answers repeated and overlapping obligations by content, not by
    manifest position or file identity.

    Trace sets are serialized {e structurally}: [Forall_obj] bodies are
    expanded at every universe member of their sort (exactly the
    objects a monitor over the sampled alphabet can ever touch), so
    the key captures everything the verdict can depend on.
    [Pointwise] trace sets carry an opaque OCaml function and admit no
    content address; queries touching one are reported uncacheable
    ({!query} returns [None]) and the engine simply recomputes them. *)

module Spec = Posl_core.Spec
open Posl_ident

type t = string
(** A hex MD5 ({!query_base}), or one with ["@"] and a depth appended
    ({!query}). *)

val query_base : universe:Universe.t -> Job.query -> t option
(** The depth-{e independent} content address: the hex MD5 of the
    serialization.  This is the persistent verdict store's key: the
    depth a stored verdict was computed at lives in the record, so one
    exact verdict (or a deep enough bounded one) answers the query at
    every requested depth.  [None] iff some specification's trace set
    contains an opaque [Pointwise] predicate.  Computed afresh on every
    call; {!Engine.answer} assembles the same key with {!of_keys} from
    pieces its session memoises. *)

val at_depth : depth:int -> t -> t
(** The in-memory cache key of a {!query_base} at a depth. *)

val query : universe:Universe.t -> depth:int -> Job.query -> t option
(** [at_depth ~depth] of {!query_base}: [None] exactly when it is. *)

(** {1 Pieces of a key}

    A key is assembled from one piece per universe and one per
    specification body, so a caller that asks about the same spec
    values again can keep the pieces instead of re-serialising them.
    The engine does: each spec value keeps its own {!spec_key}
    ({!Spec.keyed}, for a structurally equal universe only), an
    {!Engine.session} keeps each universe's {!universe_key}, and the
    keys assembled from them are byte-identical to {!query_base}'s. *)

val spec_key : universe:Universe.t -> Spec.t -> string option
(** The canonical serialization of one specification body: its name,
    objects, alphabet and trace set, the last expanded over
    [universe]'s objects at [Forall_obj] nodes.  [None] on opaque
    trace sets.  Computed afresh on every call; {!Engine.spec_key} is
    the value's own memo of it. *)

val universe_key : Universe.t -> string
(** The serialization of a universe sample, as a key embeds it. *)

val of_keys :
  kind:string -> universe_key:string -> string option list -> t option
(** [of_keys ~kind ~universe_key keys] is {!query_base} of a query of
    kind [kind] ({!Job.kind}) whose specifications, in {!Job.specs}
    order, have the serializations [keys], over the universe
    serialized as [universe_key]; [None] iff some key is. *)
