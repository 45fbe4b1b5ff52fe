(** Liveness extension — the paper's stated future work (Section 9).

    The formalism of the paper is safety-only: trace sets are prefix
    closed and, as Example 5 demonstrates, the refinement relation can
    introduce deadlocks ("Client2‖WriteAcc trivially refines
    Client‖WriteAcc") — the discussion closes with "liveness reasoning
    in this setting will therefore lead to an interesting extension of
    the results presented in this paper".  This module is that
    extension, kept within the finite-trace setting:

    - {b deadlock freedom}: every reachable monitor state has an
      enabled extension;
    - {b response obligations} ⟨trigger, response⟩: whenever a trace
      has more trigger than response events (an "open" trigger), some
      response event must remain {e reachable} — an "always eventually
      answerable" condition, the finite-trace counterpart of response
      liveness;
    - {b live specifications}: a safety specification plus obligations;
    - {b live refinement}: safety refinement (Def. 2) {e plus}
      preservation of the abstract specification's obligations and of
      deadlock freedom — under which Client2 ⋢{_live} Client-with-
      progress even though Client2 ⊑ Client;
    - {b compositional deadlock preservation}: the analysis that makes
      Example 5's phenomenon checkable — given Γ′ ⊑ Γ, does Γ′‖∆ stay
      deadlock free when Γ‖∆ is?

    All checks are relative to a universe sample and a depth, like the
    trace clause of refinement; verdicts carry witnesses. *)

open Posl_sets
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec
module Compose = Posl_core.Compose
module Refine = Posl_core.Refine
module Verdict = Posl_verdict.Verdict

type obligation = {
  name : string;
  trigger : Eventset.t;
  response : Eventset.t;
}

let obligation ~name ~trigger ~response = { name; trigger; response }

let pp_obligation ppf o =
  Format.fprintf ppf "%s: every open %a answerable by %a" o.name Eventset.pp
    o.trigger Eventset.pp o.response

(** A live specification: safety plus liveness obligations. *)
type t = {
  spec : Spec.t;
  obligations : obligation list;
  deadlock_free : bool;  (** require global deadlock freedom *)
}

let v ?(deadlock_free = true) ?(obligations = []) spec =
  { spec; obligations; deadlock_free }

let spec t = t.spec
let obligations t = t.obligations

type violation =
  | Deadlock of Trace.t
      (** a reachable trace after which nothing is enabled *)
  | Unanswerable of obligation * Trace.t
      (** a reachable trace with an open trigger from which no response
          event is reachable *)

let evidence_of_violation = function
  | Deadlock h -> Verdict.Deadlock h
  | Unanswerable (o, h) ->
      Verdict.Unanswerable { obligation = o.name; trace = h }

(* Forward reachability of a response event from a monitor state,
   memoized per state: BFS over monitor states looking for any enabled
   response transition.  [depth] bounds the search. *)
let response_reachable ~alphabet ~depth node response =
  let module SM = Map.Make (struct
    type t = Tset.state

    let compare = Tset.compare_state
  end) in
  let memo = ref SM.empty in
  let rec search visited frontier d =
    match frontier with
    | [] -> false
    | _ when d > depth -> false
    | _ ->
        let next = ref [] in
        let found = ref false in
        List.iter
          (fun st ->
            if not !found then
              Array.iter
                (fun e ->
                  match Tset.step node st e with
                  | None -> ()
                  | Some st' ->
                      if Eventset.mem e response then found := true
                      else if not (SM.mem st' !visited) then begin
                        visited := SM.add st' () !visited;
                        next := st' :: !next
                      end)
                alphabet)
          frontier;
        !found || search visited !next (d + 1)
  in
  fun st ->
    match SM.find_opt st !memo with
    | Some r -> r
    | None ->
        let visited = ref (SM.singleton st ()) in
        let r = search visited [ st ] 0 in
        memo := SM.add st r !memo;
        r

(* Exploration of (monitor state, open-trigger count) pairs; the open
   count is [#trigger - #response] along the path.  Because the monitor
   is deterministic, the same state can be reached with different open
   counts, so the pair is the exploration key. *)
let check_obligation ctx ~alphabet ~depth tset ob : (Bmc.confidence, Trace.t) result
    =
  let node = Tset.node ctx tset in
  match Tset.start node with
  | None -> Ok Bmc.Exact
  | Some st0 ->
      let reachable = response_reachable ~alphabet ~depth node ob.response in
      let module KM = Map.Make (struct
        type t = Tset.state * int

        let compare (s1, n1) (s2, n2) =
          let c = Tset.compare_state s1 s2 in
          if c <> 0 then c else Int.compare n1 n2
      end) in
      let visited = ref (KM.singleton (st0, 0) ()) in
      let exception Violation of Trace.t in
      let rec level d frontier =
        if frontier = [] then Ok Bmc.Exact
        else if d >= depth then Ok (Bmc.Bounded depth)
        else begin
          let next = ref [] in
          List.iter
            (fun ((st, opened), h) ->
              Array.iter
                (fun e ->
                  match Tset.step node st e with
                  | None -> ()
                  | Some st' ->
                      let opened' =
                        opened
                        + (if Eventset.mem e ob.trigger then 1 else 0)
                        - (if Eventset.mem e ob.response then 1 else 0)
                      in
                      let opened' = max 0 opened' in
                      let h' = Trace.snoc h e in
                      if opened' > 0 && not (reachable st') then
                        raise (Violation h');
                      if not (KM.mem (st', opened') !visited) then begin
                        visited := KM.add (st', opened') () !visited;
                        next := ((st', opened'), h') :: !next
                      end)
                alphabet)
            frontier;
          level (d + 1) !next
        end
      in
      (try level 0 [ ((st0, 0), Trace.empty) ]
       with Violation h ->
         (* Self-certification: the witness must be a genuine trace of
            the specification under the reference semantics. *)
         if not (Trace.is_empty h || Tset.mem_naive ctx tset h) then
           Verdict.uncertified
             "obligation witness %a is not a trace of the specification"
             Trace.pp h;
         Error h)

(* Check all liveness requirements of a live specification. *)
let check ctx ~depth (t : t) : (Bmc.confidence, violation) result =
  let u = Tset.universe ctx in
  let alphabet = Spec.concrete_alphabet u t.spec in
  let deadlock_verdict =
    if not t.deadlock_free then Ok Bmc.Exact
    else
      match Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset t.spec) with
      | Some h -> Error (Deadlock h)
      | None -> Ok (Bmc.Bounded depth)
  in
  match deadlock_verdict with
  | Error _ as e -> e
  | Ok c0 ->
      List.fold_left
        (fun acc ob ->
          match acc with
          | Error _ as e -> e
          | Ok c -> (
              match
                check_obligation ctx ~alphabet ~depth (Spec.tset t.spec) ob
              with
              | Error h -> Error (Unanswerable (ob, h))
              | Ok c' -> Ok (Verdict.meet c c')))
        (Ok c0) t.obligations

(** [verdict ?depth ctx t]: all liveness requirements of a live
    specification (deadlock freedom when required, every obligation)
    as a structured verdict. *)
let verdict ?(depth = 6) ctx (t : t) : Verdict.t =
  Verdict.with_context ~procedure:Verdict.Bounded_search ~depth
    (match check ctx ~depth t with
    | Ok c -> Verdict.holds ~confidence:c ()
    | Error v -> Verdict.refuted [ evidence_of_violation v ])

(** Boolean convenience wrapper. *)
let live ?depth ctx t = Verdict.is_holds (verdict ?depth ctx t)

(** Live refinement: Γ′ ⊑ Γ (Def. 2) {e and} Γ′ honours Γ's
    obligations (obligations name events of α(Γ) ⊆ α(Γ′), so they are
    meaningful for the refined specification) and deadlock freedom.
    This is the conservative strengthening the paper's discussion
    anticipates: Example 5's Client2 refines Client but fails live
    refinement against any progress obligation on the writes.

    A refuted safety clause is returned as-is (its evidence is the
    Def. 2 counterexample); otherwise the liveness verdict of the
    refined specification under the {e inherited} obligations is
    joined in with {!Verdict.both}. *)
let refine ?depth ctx (refined : t) (abstract : t) : Verdict.t =
  let safety = Refine.verdict ?depth ctx refined.spec abstract.spec in
  if not (Verdict.is_holds safety) then safety
  else
    let inherited =
      {
        spec = refined.spec;
        obligations = abstract.obligations @ refined.obligations;
        deadlock_free = abstract.deadlock_free || refined.deadlock_free;
      }
    in
    Verdict.both safety (verdict ?depth ctx inherited)

(** Example 5 as an analysis: does refining Γ into Γ′ preserve deadlock
    freedom of the composition with ∆?  Returns [Ok] when Γ‖∆ has a
    deadlock anyway (nothing to preserve) or when Γ′‖∆ is deadlock free
    up to the depth; [Error] carries the fresh deadlock of Γ′‖∆. *)
let compositional_deadlock_preservation ctx ~depth ~gamma' ~gamma ~delta :
    (unit, Trace.t) result =
  let u = Tset.universe ctx in
  let abstract_comp = Compose.interface gamma delta in
  let refined_comp = Compose.interface gamma' delta in
  let abstract_alpha = Spec.concrete_alphabet u abstract_comp in
  let refined_alpha = Spec.concrete_alphabet u refined_comp in
  match
    Bmc.find_deadlock ctx ~alphabet:abstract_alpha ~depth
      (Spec.tset abstract_comp)
  with
  | Some _ -> Ok () (* already deadlocked: nothing to preserve *)
  | None -> (
      match
        Bmc.find_deadlock ctx ~alphabet:refined_alpha ~depth
          (Spec.tset refined_comp)
      with
      | None -> Ok ()
      | Some h -> Error h)
