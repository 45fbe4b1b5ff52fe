(** Evaluation of the top-level assertions of an OUN-lite file.

    A file with [assert] statements is a verification script: the
    runner elaborates the specifications, builds an adequate universe,
    and evaluates every assertion with the library's checkers,
    producing a machine-readable result per assertion (used by
    [posl-check run] and by regression tests). *)

open Ast
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Consistency = Posl_core.Consistency
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc

type result = {
  assertion : assertion;
  holds : bool;  (** measured outcome matched [assertion.expected] *)
  detail : string;  (** human-readable verdict of the underlying check *)
}

let pp_result ppf r =
  Format.fprintf ppf "%s  %a — %s"
    (if r.holds then "PASS" else "FAIL")
    Printer.pp_assertion r.assertion r.detail

exception Unknown_spec of string * pos

let run_file ?(depth = 6) ?(extra_objects = 2) (f : file) : result list =
  let specs = Elab.elab_file f in
  let find pos name =
    match
      List.find_opt (fun s -> String.equal (Spec.name s) name) specs
    with
    | Some s -> s
    | None -> raise (Unknown_spec (name, pos))
  in
  let ctx = Tset.ctx (Spec.adequate_universe ~extra_objects specs) in
  let eval (a : assertion) : bool * string =
    let find name = find a.assert_pos name in
    (* Resolve both names left-to-right before checking, so error
       reporting is deterministic. *)
    let find2 l r =
      let sl = find l in
      let sr = find r in
      (sl, sr)
    in
    match a.check with
    | Chk_refines (l, r) ->
        let l, r = find2 l r in
        let v = Refine.verdict ~depth ctx l r in
        let module V = Posl_verdict.Verdict in
        if V.is_holds v then
          ( true,
            Format.asprintf "refines%a"
              (fun ppf -> function
                | None -> ()
                | Some c -> Format.fprintf ppf " [%a]" Bmc.pp_confidence c)
              v.V.confidence )
        else (false, V.to_string v)
    | Chk_composable (l, r) -> (
        let l, r = find2 l r in
        match Compose.check_composable l r with
        | Ok () -> (true, "composable")
        | Error fl ->
            (false, Format.asprintf "%a" Compose.pp_composability_failure fl))
    | Chk_proper (refined, abstract, context) ->
        let refined = find refined in
        let abstract = find abstract in
        let context = find context in
        let holds = Compose.proper ~refined ~abstract ~context in
        (holds, if holds then "proper" else "α₀ meets the context alphabet")
    | Chk_consistent (l, r) ->
        let l, r = find2 l r in
        let v = Consistency.verdict ~depth ctx l r in
        let module V = Posl_verdict.Verdict in
        if V.is_holds v then
          ( true,
            match V.witness_traces v with
            | h :: _ -> Format.asprintf "witness %a" Posl_trace.Trace.pp h
            | [] -> "consistent" )
        else (false, V.to_string v)
    | Chk_equals (l, r) ->
        let l, r = find2 l r in
        let v = Theory.tset_equal ctx ~depth l r in
        if Theory.is_pass v then
          ( true,
            Format.asprintf "equal%a"
              (fun ppf -> function
                | None -> ()
                | Some c -> Format.fprintf ppf " [%a]" Bmc.pp_confidence c)
              v.Posl_verdict.Verdict.confidence )
        else (false, Posl_verdict.Verdict.to_string v)
    | Chk_deadlock_free (l, r) -> (
        let l, r = find2 l r in
        match Compose.compose l r with
        | Error fl ->
            (false, Format.asprintf "%a" Compose.pp_composability_failure fl)
        | Ok comp -> (
            let alphabet = Spec.concrete_alphabet (Tset.universe ctx) comp in
            match
              Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset comp)
            with
            | None -> (true, "no deadlock")
            | Some h ->
                (false, Format.asprintf "deadlock after %a" Posl_trace.Trace.pp h)
            ))
  in
  List.map
    (fun a ->
      let measured, detail = eval a in
      { assertion = a; holds = measured = a.expected; detail })
    (Ast.assertions f)

let all_pass results = List.for_all (fun r -> r.holds) results
