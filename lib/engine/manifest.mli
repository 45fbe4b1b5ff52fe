(** Query manifests: the line-oriented batch input format, as a library.

    Until the verification service existed this grammar lived inside
    the CLI; a resident server must construct {!Engine.request}s from
    text it received over a socket without round-tripping through the
    filesystem, so parsing ({!entries_typed}) and elaboration
    ({!elaborate_typed}) are split and the spec-file loader is
    pluggable.

    Grammar (['#'] and ["//"] start comments):

    {v
    use FILE            switch the current spec file
    depth N             exploration depth for subsequent queries
    refine G' G
    compose G D
    proper G' G D
    deadlock G D
    equal A B
    v}

    Any spec-name position also accepts a composition token
    ["A||B"] (left-associated; ["A||B||C"] is [(A‖B)‖C]), built at
    elaboration time with {!Posl_core.Compose.compose} — the operand
    then carries {!Posl_core.Spec.parts} provenance, making queries
    over it eligible for the engine's compositional {!Plan}ner.
    Non-composable parts are an elaboration error.

    Errors are {!input_error}s: the rendered ["path:line: message"]
    ({!input_error_message}) plus the failing {e file} and a byte
    {e offset}, so interactive consumers (the watch loop) can point an
    editor at a half-saved spec file instead of dying on it.  The CLI
    maps them to its input-error exit code, the server to a typed
    [input] error response. *)

module Spec = Posl_core.Spec
open Posl_ident

type input_error = {
  input_file : string;  (** the file the failure is about *)
  input_offset : int option;
      (** byte offset of the failure in [input_file]'s content, when
          the parser located it *)
  input_message : string;  (** complete human-readable message *)
}

val input_error_message : input_error -> string
(** The rendered message, without position detail. *)

val input_error_detail : input_error -> string
(** The message plus ["(byte N of FILE)"] when the failure was located
    — what batch and serve print so an editor can jump to the fault. *)

type entry = {
  line : int;  (** 1-based line number in the manifest text *)
  file : string;  (** the spec file in scope ([use]), resolved *)
  depth : int;
  kind : string;  (** ["refine" | "compose" | "proper" | "deadlock" | "equal"] *)
  names : string list;  (** spec names, positional, arity already checked *)
}

val arity : string -> int option
(** Number of spec names the query kind takes; [None] for unknown
    kinds. *)

val query : kind:string -> Spec.t list -> (Job.query, string) result
(** Build the typed query from resolved specs in positional order
    (the inverse of {!Job.kind}/{!Job.specs}); [Error] on unknown kind
    or arity mismatch. *)

val resolve_name :
  Spec.t list -> file:string -> string -> (Spec.t, string) result
(** Resolve one spec-name token against a loaded corpus: a plain name
    looks up directly, an ["A||B"] composition token builds the
    left-associated {!Posl_core.Compose.compose} of its parts (so the
    result carries {!Spec.parts} provenance).  [file] names the corpus
    in error messages; an unknown name's error lists the names the
    corpus declares.  Every name position — manifest entries and the
    wire protocol's named queries — resolves through here, so
    composition tokens mean the same thing on every input surface. *)

val composition_parts : string -> string list
(** The component names of a name token: ["A||B||C"] → [["A"; "B";
    "C"]], a plain name → itself, singleton.  This is the dependency
    footprint of the token — exactly the named specs whose edits can
    move a query over it (the watch subsystem's dependency token is
    built on it). *)

val entries_typed :
  ?path:string ->
  ?dir:string ->
  default_depth:int ->
  string ->
  (entry list, input_error) result
(** Parse manifest {e text}.  [path] (default ["manifest"]) is used in
    error messages only; relative [use] targets resolve against [dir]
    when given (the CLI passes the manifest's directory).  On error,
    [input_file] is the manifest [path] and [input_offset] the start
    of the offending line. *)

type typed_loader = string -> (Spec.t list * Universe.t, input_error) result
(** Resolve one spec-file reference to its specifications and the
    universe queries over it are posed in.  Called once per distinct
    [use] target ({!elaborate_typed} memoizes nothing — memoize in the
    loader).  A half-saved file yields a diagnostic, not a crash. *)

val file_loader_typed : extra_objects:int -> unit -> typed_loader
(** The filesystem loader the CLI uses: {!Posl_lang.Lang.specs_of_file}
    plus {!Spec.adequate_universe}, memoized per path for the lifetime
    of the returned closure.  A parse failure carries the spec file and
    the byte offset of the failing position. *)

val specs_of_source :
  extra_objects:int ->
  file:string ->
  string ->
  (Spec.t list * Universe.t, input_error) result
(** Parse spec-file {e text} already in hand (the watch loop reads and
    digests file content itself): specs plus their adequate universe,
    or a typed error positioned in [file]. *)

val request_of_entry :
  ?path:string ->
  load:typed_loader ->
  entry ->
  (Engine.request, input_error) result
(** Elaborate a single entry.  This is the per-query granularity the
    watch subsystem needs: requests keep 1:1 correspondence with their
    source entries (each query's dependency token is built from its
    entry), and one entry's failure doesn't discard its neighbours'
    requests. *)

val elaborate_typed :
  ?path:string ->
  load:typed_loader ->
  entry list ->
  (Engine.request list, input_error) result
(** Resolve every entry's spec names through [load] and build engine
    requests, labelled ["basename(file): description"] exactly as the
    batch table shows them. *)

val requests_of_string_typed :
  ?path:string ->
  ?dir:string ->
  default_depth:int ->
  load:typed_loader ->
  string ->
  (Engine.request list, input_error) result
(** {!entries_typed} composed with {!elaborate_typed} — the server's
    whole path from received manifest text to runnable requests. *)

val requests_of_file_typed :
  default_depth:int ->
  extra_objects:int ->
  string ->
  (Engine.request list, input_error) result
(** Read a manifest file and elaborate it with {!file_loader_typed};
    relative [use] targets resolve against the manifest's directory.
    May not raise: unreadable files are [Error].  Batch and serve
    report [input_file]/[input_offset] when a spec file is
    half-saved. *)
