(** Evaluation of the top-level assertions of an OUN-lite file.

    A file with [assert] statements is a verification script: the
    runner elaborates the specifications, builds an adequate universe,
    and evaluates every assertion on one context of it, producing a
    machine-readable result per assertion (used by [posl-check run]
    and by regression tests).  Every assertion with a {!Job} kind is
    answered by {!Job.run}, the one implementation behind the batch
    engine and the query subcommands, so a script and a batch can never
    disagree; [consistent] has no job kind and asks
    {!Posl_core.Consistency.verdict}. *)

open Posl_lang.Ast
module Printer = Posl_lang.Printer
module Spec = Posl_core.Spec
module Consistency = Posl_core.Consistency
module Tset = Posl_tset.Tset
module Verdict = Posl_verdict.Verdict

type result = {
  assertion : assertion;
  holds : bool;  (** measured outcome matched [assertion.expected] *)
  detail : string;  (** the verdict of the underlying check, one line *)
}

let pp_result ppf r =
  Format.fprintf ppf "%s  %a — %s"
    (if r.holds then "PASS" else "FAIL")
    Printer.pp_assertion r.assertion r.detail

exception Unknown_spec of string * pos

(* @raise Job.Overflow when a closure outgrows the context's cap. *)
let run_file ?(depth = 6) ?(extra_objects = 2) (f : file) : result list =
  let specs = Posl_lang.Elab.elab_file f in
  let ctx = Tset.ctx (Spec.adequate_universe ~extra_objects specs) in
  let eval (a : assertion) =
    (* names resolve left to right, so error reporting is deterministic *)
    let find name =
      match
        List.find_opt (fun s -> String.equal (Spec.name s) name) specs
      with
      | Some s -> s
      | None -> raise (Unknown_spec (name, a.assert_pos))
    in
    let find2 l r =
      let l = find l in
      (l, find r)
    in
    let job = Job.run ctx ~depth in
    match a.check with
    | Chk_refines (l, r) ->
        let refined, abstract = find2 l r in
        job (Job.refine ~refined ~abstract)
    | Chk_composable (l, r) ->
        let left, right = find2 l r in
        job (Job.compose ~left ~right)
    | Chk_proper (refined, abstract, context) ->
        let refined, abstract = find2 refined abstract in
        job (Job.proper ~refined ~abstract ~context:(find context))
    | Chk_consistent (l, r) ->
        let l, r = find2 l r in
        Consistency.verdict ctx l r
    | Chk_equals (l, r) ->
        let left, right = find2 l r in
        job (Job.equal ~left ~right)
    | Chk_deadlock_free (l, r) ->
        let left, right = find2 l r in
        job (Job.deadlock ~left ~right)
  in
  List.map
    (fun a ->
      let v = eval a in
      {
        assertion = a;
        holds = Verdict.to_bool v = a.expected;
        detail = Verdict.to_string v;
      })
    (assertions f)

let all_pass results = List.for_all (fun r -> r.holds) results
