(* Compositional proof planning: whole-system verdicts from component
   verdicts (Theorems 7 & 16), through the batch engine.

   A small telemetry fleet — a gauge g, a log l, a clock k — whose
   components never talk to each other, assembled into three systems
   that share parts.  The gauge is upgraded to bracketed sampling
   (Gauge2 ⊑ Gauge).  Asking the engine whether each upgraded system
   refines its original is a composite query: the operands carry their
   construction ([Spec.parts], recorded by [Compose.compose]), so the
   engine's planner discharges the theorem side conditions symbolically
   and reduces all three questions to the single component obligation
   Gauge2 ⊑ Gauge — proved once, then served from the verdict cache.

   The same batch is run twice, with the planner off and on: the
   verdicts agree (the planner only fires when every premise holds
   exactly), while the exploration counters show what was saved.

   Run with: dune exec examples/compositional_upgrade.exe *)

open Posl_ident
open Posl_sets
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Tset = Posl_tset.Tset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Plan = Posl_engine.Plan
module Verdict = Posl_verdict.Verdict

let g = Oid.v "g"
let l = Oid.v "l"
let k = Oid.v "k"
let m_sample = Mth.v "SAMPLE"
let m_open = Mth.v "OPEN"
let m_close = Mth.v "CLOSE"
let m_append = Mth.v "APPEND"
let m_tick = Mth.v "TICK"

(* The fleet's environment: everything except the components. *)
let env = Oset.cofin_of_list [ g; l; k ]

let calls ?(args = Argsel.none_only) callee ms =
  Eventset.calls ~args ~callers:env ~callees:(Oset.singleton callee)
    (Mset.of_list ms)

let gauge =
  Spec.v ~name:"Gauge" ~objs:[ g ]
    ~alpha:(calls ~args:Argsel.any_value g [ m_sample ])
    Tset.all

(* The upgrade: per-client OPEN/CLOSE brackets around sampling. *)
let gauge2 =
  let atom ?(args = Argsel.none_only) m =
    Regex.atom
      (Epat.make ~args ~caller:(Epat.Var "x") ~callee:(Epat.Const g)
         (Mset.singleton m))
  in
  Spec.v ~name:"Gauge2" ~objs:[ g ]
    ~alpha:
      (Eventset.union
         (calls g [ m_open; m_close ])
         (calls ~args:Argsel.any_value g [ m_sample ]))
    (Tset.prs
       (Regex.star
          (Regex.bind "x" env
             (Regex.seq (atom m_open)
                (Regex.seq
                   (Regex.star (atom ~args:Argsel.any_value m_sample))
                   (atom m_close))))))

let log =
  Spec.v ~name:"Log" ~objs:[ l ]
    ~alpha:(calls ~args:Argsel.any_value l [ m_append ])
    Tset.all

let clock = Spec.v ~name:"Clock" ~objs:[ k ] ~alpha:(calls k [ m_tick ]) Tset.all

let ( || ) a b = Compose.compose_exn a b

let () =
  Format.printf "== compositional upgrade (the engine's planner) ==@.@.";
  let all = [ gauge; gauge2; log; clock ] in
  let universe = Spec.adequate_universe all in
  (* Three systems share the gauge; the third nests a two-object
     component, so its outer step is Theorem 16 and the inner one
     Theorem 7. *)
  let requests =
    List.map
      (fun (refined, abstract) ->
        Engine.request ~universe (Job.refine ~refined ~abstract))
      [
        (gauge2 || log, gauge || log);
        (gauge2 || clock, gauge || clock);
        ((gauge2 || log) || clock, (gauge || log) || clock);
      ]
  in
  let show name mode =
    let results, stats = Engine.run_batch ~domains:1 ~plan:mode requests in
    Format.printf "--plan %s:@." name;
    List.iter
      (fun (r : Engine.result) ->
        Format.printf "  %-40s %a%s@." r.Engine.request.Engine.label
          Verdict.pp r.Engine.verdict
          (match r.Engine.verdict.Verdict.provenance.Verdict.procedure with
          | Some (Verdict.Derived { rule; premises }) ->
              Printf.sprintf "  [%s, %d premise%s]" rule
                (List.length premises)
                (if List.length premises = 1 then "" else "s")
          | Some _ | None -> ""))
      results;
    Format.printf "  %a@.@." Engine.pp_stats stats;
    List.map (fun (r : Engine.result) -> r.Engine.verdict) results
  in
  let direct = show "off" Plan.Off in
  let derived = show "auto" Plan.Auto in
  (* The planner's soundness gate: derived and direct verdicts agree on
     status, confidence and evidence — only the provenance differs
     (which rule fired vs which procedure ran). *)
  Format.printf "derived verdicts agree with direct checking: %b@."
    (List.for_all2 Verdict.equal_modulo_provenance derived direct)
