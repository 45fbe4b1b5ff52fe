(* Component-level refinement: functionality upgrade of a replicated
   storage service (Sections 6-7 of the paper).

   A component encapsulates two storage replicas s1, s2.  Two partial
   specifications describe it from different viewpoints:

   - ReplView (Γ): clients PUT data to either replica;
   - LogView  (∆): the replicas report to a logger l.

   The upgrade Γ' adds a cache object n (object introduction in a
   refinement step, Def. 2) together with new GET events.  Because n is
   not in ∆'s communication environment, the refinement is *proper*
   w.r.t. ∆ (Def. 14), and Theorem 16 gives compositional refinement:
   Γ'‖∆ ⊑ Γ‖∆ — a whole-system conclusion obtained from a local step.

   The example then shows why properness is needed: an upgrade Γ'' that
   absorbs the logger's alert target m into the component hides events
   that were visible in Γ‖∆2, and compositional refinement fails.

   Run with: dune exec examples/component_upgrade.exe *)

open Posl_ident
open Posl_sets
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat

let s1 = Oid.v "s1"
let s2 = Oid.v "s2"
let logger = Oid.v "log"
let cache = Oid.v "cache"
let monitor = Oid.v "mon"
let m_put = Mth.v "PUT"
let m_get = Mth.v "GET"
let m_log = Mth.v "LOG"
let m_alert = Mth.v "ALERT"

(* The client environment: everything except the service's own objects. *)
let env = Oset.cofin_of_list [ s1; s2; logger; cache; monitor ]
let replicas = Oset.of_list [ s1; s2 ]

let puts =
  Eventset.calls ~args:Argsel.any_value ~callers:env ~callees:replicas
    (Mset.singleton m_put)

let gets =
  Eventset.calls ~args:Argsel.any_value ~callers:env
    ~callees:(Oset.singleton cache) (Mset.singleton m_get)

let logs =
  Eventset.calls ~args:Argsel.none_only ~callers:replicas
    ~callees:(Oset.singleton logger) (Mset.singleton m_log)

let alerts =
  Eventset.calls ~args:Argsel.none_only ~callers:(Oset.singleton logger)
    ~callees:(Oset.singleton monitor) (Mset.singleton m_alert)

(* Γ — the replica viewpoint. *)
let repl_view = Spec.v ~name:"ReplView" ~objs:[ s1; s2 ] ~alpha:puts Tset.all

(* ∆ — the logging viewpoint: each replica logs after being written. *)
let log_view =
  Spec.v ~name:"LogView" ~objs:[ logger ] ~alpha:logs Tset.all

(* Γ' — the upgrade: a cache object n joins the component; reads are
   served from the cache, and a PUT must precede the first GET. *)
let upgrade_tset =
  Tset.prs
    (let put =
       Regex.atom
         (Epat.make ~args:Argsel.any_value ~caller:(Epat.In env)
            ~callee:(Epat.In replicas) (Mset.singleton m_put))
     in
     let get =
       Regex.atom
         (Epat.make ~args:Argsel.any_value ~caller:(Epat.In env)
            ~callee:(Epat.Const cache) (Mset.singleton m_get))
     in
     (* puts* then (put|get)*: no GET before the first PUT. *)
     Regex.seq put (Regex.star (Regex.alt put get)) |> Regex.opt)

let repl_view' =
  Spec.v ~name:"ReplView'" ~objs:[ s1; s2; cache ]
    ~alpha:(Eventset.union puts gets)
    upgrade_tset

(* ∆2 — a logging viewpoint whose environment includes the alert
   monitor m. *)
let log_view2 =
  Spec.v ~name:"LogView2" ~objs:[ logger ]
    ~alpha:(Eventset.union logs alerts)
    Tset.all

(* Γ'' — an upgrade that absorbs the monitor into the component. *)
let repl_view'' =
  Spec.v ~name:"ReplView''" ~objs:[ s1; s2; monitor ] ~alpha:puts Tset.all

let () =
  Format.printf "== component upgrade (Theorem 16) ==@.@.";
  let universe =
    Spec.adequate_universe
      [ repl_view; repl_view'; repl_view''; log_view; log_view2 ]
  in
  let ctx = Tset.ctx universe in
  let depth = 5 in

  (* Static side conditions, decided symbolically. *)
  Format.printf "composable(ReplView , LogView)?  %b@."
    (Compose.composable repl_view log_view);
  Format.printf "composable(ReplView', LogView)?  %b@."
    (Compose.composable repl_view' log_view);
  Format.printf "proper(ReplView' ⊑ ReplView w.r.t. LogView)?  %b@."
    (Compose.proper ~refined:repl_view' ~abstract:repl_view ~context:log_view);
  Format.printf "ReplView' ⊑ ReplView?  %a@.@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx repl_view' repl_view);

  (* Lemma 15 and Theorem 16: the local upgrade lifts to the composed
     system. *)
  Format.printf "Lemma 15:   %a@." Theory.pp_outcome
    (Theory.lemma15 ~gamma':repl_view' ~gamma:repl_view ~delta:log_view);
  Format.printf "Theorem 16: %a@.@." Theory.pp_outcome
    (Theory.theorem16 ctx ~depth ~gamma':repl_view' ~gamma:repl_view
       ~delta:log_view);

  (* The improper upgrade: the new object is in ∆2's communication
     environment, properness fails, and so does compositional
     refinement — the upgrade would hide the logger's alerts. *)
  Format.printf "proper(ReplView'' ⊑ ReplView w.r.t. LogView2)?  %b@."
    (Compose.proper ~refined:repl_view'' ~abstract:repl_view
       ~context:log_view2);
  Format.printf "ReplView'' ⊑ ReplView?  %a@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx repl_view'' repl_view);
  (match (Compose.compose repl_view'' log_view2, Compose.compose repl_view log_view2) with
  | Ok refined_comp, Ok abstract_comp ->
      Format.printf "ReplView''‖LogView2 ⊑ ReplView‖LogView2?  %a@."
        Posl_verdict.Verdict.pp
        (Refine.verdict ~depth ctx refined_comp abstract_comp)
  | Error f, _ | _, Error f ->
      Format.printf "unexpectedly not composable: %a@."
        Compose.pp_composability_failure f);
  Format.printf
    "(conclusion fails without properness — the side condition of@.\
    \ Theorem 16 is necessary, exactly as the paper motivates)@."
