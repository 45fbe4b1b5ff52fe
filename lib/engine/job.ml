(** Check jobs: the unit of work of the batch verification engine.

    Each constructor mirrors one [posl-check] subcommand; {!run} is the
    single implementation both the CLI and the engine call, so a batch
    answer and a single-query answer can never drift apart. *)

module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Bmc = Posl_bmc.Bmc
module Tset = Posl_tset.Tset
module Eventset = Posl_sets.Eventset
module Verdict = Posl_verdict.Verdict
open Posl_ident

type query =
  | Refine of { refined : Spec.t; abstract : Spec.t }
  | Compose of { left : Spec.t; right : Spec.t }
  | Proper of { refined : Spec.t; abstract : Spec.t; context : Spec.t }
  | Deadlock of { left : Spec.t; right : Spec.t }
  | Equal of { left : Spec.t; right : Spec.t }

let refine ~refined ~abstract = Refine { refined; abstract }
let compose ~left ~right = Compose { left; right }
let proper ~refined ~abstract ~context = Proper { refined; abstract; context }
let deadlock ~left ~right = Deadlock { left; right }
let equal ~left ~right = Equal { left; right }

type verdict = Verdict.t

let kind = function
  | Refine _ -> "refine"
  | Compose _ -> "compose"
  | Proper _ -> "proper"
  | Deadlock _ -> "deadlock"
  | Equal _ -> "equal"

let specs = function
  | Refine { refined; abstract } -> [ refined; abstract ]
  | Compose { left; right } | Deadlock { left; right } | Equal { left; right }
    ->
      [ left; right ]
  | Proper { refined; abstract; context } -> [ refined; abstract; context ]

let describe = function
  | Refine { refined; abstract } ->
      Printf.sprintf "%s ⊑ %s" (Spec.name refined) (Spec.name abstract)
  | Compose { left; right } ->
      Printf.sprintf "%s ‖ %s" (Spec.name left) (Spec.name right)
  | Proper { refined; abstract; context } ->
      Printf.sprintf "proper(%s ⊑ %s wrt %s)" (Spec.name refined)
        (Spec.name abstract) (Spec.name context)
  | Deadlock { left; right } ->
      Printf.sprintf "deadlock(%s ‖ %s)" (Spec.name left) (Spec.name right)
  | Equal { left; right } ->
      Printf.sprintf "T(%s) = T(%s)" (Spec.name left) (Spec.name right)

(* Every verdict is stamped with the content address of the universe it
   is relative to; the same serialization feeds the engine's job
   digests, so a cached verdict's provenance matches a fresh one's. *)
let universe_digest u =
  Stdlib.Digest.to_hex
    (Stdlib.Digest.string (Format.asprintf "%a" Universe.pp u))

let decide (ctx : Tset.ctx) ~depth query : verdict =
  let t0 = Unix.gettimeofday () in
  let v =
    match query with
    | Refine { refined; abstract } ->
        Refine.verdict ~depth ctx refined abstract
    | Compose { left; right } -> Compose.composable_verdict left right
    | Proper { refined; abstract; context } ->
        Compose.proper_verdict ~refined ~abstract ~context
    | Deadlock { left; right } -> (
        match Compose.compose left right with
        | Error f ->
            (* The question cannot be posed: there is no composition to
               search.  Vacuous, with the composability failure as
               evidence. *)
            {
              Verdict.status = Vacuous;
              confidence = None;
              evidence = [ Compose.evidence_of_failure f ];
              provenance = Verdict.no_provenance;
            }
        | Ok comp ->
            let alphabet = Spec.concrete_alphabet (Tset.universe ctx) comp in
            Verdict.with_context ~procedure:Verdict.Bounded_search
              (match
                 Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset comp)
               with
              | None -> Verdict.holds ~confidence:(Bounded depth) ()
              | Some h ->
                  Verdict.refuted ~confidence:(Bounded depth)
                    [ Verdict.Deadlock h ]))
    | Equal { left; right } -> Theory.tset_equal ctx ~depth left right
  in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Verdict.with_context ~depth
    ~universe_digest:(universe_digest (Tset.universe ctx))
    ~elapsed_ms v

exception Overflow of { query : string; cap : int }

let overflow_message ~query ~cap =
  Printf.sprintf
    "%s: hidden-event closure exceeds the %d-composite cap; no verdict" query
    cap

let run ctx ~depth query =
  try decide ctx ~depth query
  with Tset.Closure_overflow _ ->
    raise (Overflow { query = describe query; cap = Tset.closure_cap ctx })
