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
    contains an opaque [Pointwise] predicate. *)

val at_depth : depth:int -> t -> t
(** The in-memory cache key of a {!query_base} at a depth. *)

val query : universe:Universe.t -> depth:int -> Job.query -> t option
(** [at_depth ~depth] of {!query_base}: [None] exactly when it is. *)

val spec_key : universe:Universe.t -> Spec.t -> string option
(** The canonical serialization of one specification body (exposed for
    collision tests); [None] on opaque trace sets. *)

val pp : Format.formatter -> t -> unit
