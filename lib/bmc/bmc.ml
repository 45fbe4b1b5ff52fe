(** State-space exploration over trace-set monitors.

    The verification questions of the paper that are not purely
    set-algebraic all reduce to reachability over the product of
    trace-set monitors:

    - clause 3 of refinement (Def. 2): every trace of Γ′ projects into
      T(Γ) — an inclusion between the survival language of one monitor
      and the (projected) survival language of another;
    - trace-set equality of compositions (Example 6);
    - deadlock analysis (Examples 4 and 5): reachable monitor states
      with no enabled events.

    All three are answered by one product walk ({!walk}), breadth-first
    over interned monitor states.  When the reachable state space is
    exhausted, the verdict holds for {e all} depths over the given
    concrete alphabet and is reported {!Exact}; otherwise it is
    {!Bounded} by the depth. *)

module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Verdict = Posl_verdict.Verdict
module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics

let antichain_pairs_c =
  Metrics.counter
    ~help:"Frontier pairs admitted by the antichain inclusion checker"
    "posl_bmc_antichain_pairs_total"

let antichain_prunes_c =
  Metrics.counter ~help:"Frontier pairs pruned by antichain subsumption"
    "posl_bmc_antichain_prunes_total"

type confidence = Verdict.confidence = Exact | Bounded of int

let pp_confidence = Verdict.pp_confidence

type 'a verdict = Holds of confidence | Refuted of 'a

let pp_verdict pp_refutation ppf = function
  | Holds c -> Format.fprintf ppf "holds [%a]" pp_confidence c
  | Refuted r -> Format.fprintf ppf "refuted: %a" pp_refutation r

(** {1 Self-certification}

    Every counterexample the exploration produces is replayed through
    the denotational reference semantics ([Tset.mem_naive]) before it
    is reported: a wrong monitor/product implementation cannot emit a
    plausible-looking witness. *)

(* h refutes [lhs ⊆ rhs ∘ proj] iff h ∈ lhs and h/proj ∉ rhs. *)
let certify_inclusion ctx ~lhs ~proj ~rhs h =
  Telemetry.with_span "verdict.certify"
    ~attrs:
      [ ("kind", "inclusion"); ("witness_len", string_of_int (Trace.length h)) ]
  @@ fun () ->
  if not (Tset.mem_naive ctx lhs h) then
    Verdict.uncertified
      "inclusion counterexample %a is not a trace of the refined side"
      Trace.pp h;
  if Tset.mem_naive ctx rhs (Eventset.restrict_trace proj h) then
    Verdict.uncertified
      "inclusion counterexample %a projects back into the abstract trace set"
      Trace.pp h;
  h

(* h witnesses a deadlock of t iff h is reachable (h ∈ t, or h = ε for
   the degenerate empty trace set) and no event of the alphabet extends
   it inside t. *)
let certify_deadlock ctx ~alphabet t h =
  Telemetry.with_span "verdict.certify"
    ~attrs:
      [ ("kind", "deadlock"); ("witness_len", string_of_int (Trace.length h)) ]
  @@ fun () ->
  if not (Trace.is_empty h || Tset.mem_naive ctx t h) then
    Verdict.uncertified "deadlock witness %a is not a trace of the spec"
      Trace.pp h;
  Array.iter
    (fun e ->
      if Tset.mem_naive ctx t (Trace.snoc h e) then
        Verdict.uncertified "deadlock witness %a can be extended by %a"
          Trace.pp h Event.pp e)
    alphabet;
  h

(** {1 The product walk}

    One breadth-first walk over the product of a [lhs] monitor with,
    for inclusion, an [rhs] monitor, on interned small-int state ids
    with memoized successor rows.  It answers one of three questions:

    - [Escape (proj, rhs, rhs0)]: a step of [lhs] inside [proj] that
      [rhs] (started in [rhs0]) cannot follow — inclusion, and
      equality run both ways;
    - [Stuck]: a reachable [lhs] state with no live successor —
      deadlock;
    - [Count]: none; the walk runs to its cut and counts states.

    Pairs are de-duplicated by packed [(lhs, rhs)] id; when the rhs
    state is a [Product] (the one genuinely set-shaped state kind — its
    hidden-event closure is a subset construction over composites), a
    pair is additionally pruned when an already-visited pair with the
    same lhs state has a ⊆-smaller rhs macro-state ({!Antichain}).
    Exhaustion of the (pruned) frontier is still exact: macro stepping
    is monotone, so everything reachable from a pruned pair is covered
    by the minimal pair that pruned it.  Discovery follows alphabet
    order, so the first answer found carries the lexicographically-least
    shortest trace.

    With [~complete:false] the walk cuts at [depth]: states at depth
    [depth] are admitted but not expanded.  With [~complete:true] it
    runs past [depth] until the frontier is exhausted or more than
    {!budget} pairs have been admitted.  Inclusion asks for completion
    only when both monitors are {!Tset.finitary}: a [Pointwise] member
    mints a fresh state per path, so completion would enumerate paths
    exponentially. *)

type question =
  | Escape of Eventset.t * Tset.node * Tset.state
  | Stuck
  | Count

type outcome = Found of Trace.t | Exhausted | Cut

(* Pair admissions after which a complete walk stops at the next level
   at or past the depth bound. *)
let budget = 200_000

exception Answer of Trace.t

let walk ~complete ctx ~(alphabet : Event.t array) ~depth question
    (lhs : Tset.node) (lhs0 : Tset.state) : outcome * int * Antichain.stats =
  let n = Array.length alphabet in
  let eids = Array.map (Tset.event_id ctx) alphabet in
  (* Successor cells are the nodes' own rows ({!Tset.step_id}), filled
     lazily — rhs states are only stepped at symbols where the lhs
     survives, and never outside the projection — and kept for the
     context's lifetime, so a monitor appearing in many questions —
     every corpus spec does — steps each state once per context. *)
  let cell node id s = Tset.step_id node ~event_id:eids.(s) id alphabet.(s) in
  let lcell = cell lhs in
  let proj_mask, rcell, r0, macro =
    match question with
    | Escape (proj, rhs, rhs0) ->
        ( Array.map (fun e -> Eventset.mem e proj) alphabet,
          cell rhs,
          Tset.intern_state ctx rhs0,
          Tset.macro_of_id ctx )
    | Stuck | Count -> (Array.make n false, (fun r _ -> r), 0, fun _ -> None)
  in
  (* most walks visit few pairs; the tables grow on demand *)
  let visited_pairs = Hashtbl.create 64 in
  let ac = Antichain.create () in
  let admitted = ref 0 in
  let admit l r =
    let fresh =
      match macro r with
      | Some ids -> (
          match Antichain.check_add ac l (Bitset.of_sorted_ids ids) with
          | `Added -> true
          | `Subsumed -> false)
      | None ->
          (* ids stay well under 2^31 in any feasible run *)
          let key = (l lsl 31) lor r in
          if Hashtbl.mem visited_pairs key then false
          else begin
            Hashtbl.add visited_pairs key ();
            true
          end
    in
    if fresh then incr admitted;
    fresh
  in
  let l0 = Tset.intern_state ctx lhs0 in
  ignore (admit l0 r0);
  let stuck = match question with Stuck -> true | Escape _ | Count -> false in
  (* Frontier traces are kept reversed, so admitting a pair is one cons
     however deep the walk goes; only an answer's trace is turned
     round. *)
  let answer rev_h = raise (Answer (Trace.of_list (List.rev rev_h))) in
  let expand (l, r, rev_h) next =
    let live = ref false in
    for s = 0 to n - 1 do
      let l' = lcell l s in
      if l' >= 0 then begin
        live := true;
        let r' = if proj_mask.(s) then rcell r s else r in
        if r' < 0 then answer (alphabet.(s) :: rev_h);
        if admit l' r' then next := (l', r', alphabet.(s) :: rev_h) :: !next
      end
    done;
    if stuck && not !live then answer rev_h
  in
  let rec level d frontier =
    match frontier with
    | [] -> Exhausted
    | _ when d >= depth && ((not complete) || !admitted > budget) -> Cut
    | _ ->
        let next = ref [] in
        List.iter (fun p -> expand p next) frontier;
        level (d + 1) (List.rev !next)
  in
  let outcome =
    try level 0 [ (l0, r0, []) ] with Answer h -> Found h
  in
  (outcome, !admitted, Antichain.stats ac)

(** {1 Trace-set inclusion under projection}

    Does every trace [h] of [lhs] over the concrete [alphabet] satisfy
    [h/proj ∈ rhs]?  This is clause 3 of Def. 2 with [lhs = T(Γ′)],
    [proj = α(Γ)], [rhs = T(Γ)].  Refutations are the walk's first
    escape — the lexicographically-least shortest violating trace. *)
let check_inclusion_antichain ?(complete = true) (ctx : Tset.ctx)
    ~(alphabet : Event.t array) ~depth ~(lhs : Tset.t) ~(proj : Eventset.t)
    ~(rhs : Tset.t) : Trace.t verdict =
  match Tset.shape rhs with
  | Tset.All ->
      (* h/proj ∈ All for every h: clause 3 holds outright, with the
         same confidence and witness story as a full exploration
         (there is nothing to refute).  Example 1's Read ("no
         restrictions") is refined by everything. *)
      Holds Exact
  | _ -> (
      let lnode = Tset.node ctx lhs in
      match Tset.start lnode with
      | None -> Holds Exact (* T(Γ′) degenerate: even ε is outside it *)
      | Some lhs0 -> (
          let rnode = Tset.node ctx rhs in
          match Tset.start rnode with
          | None ->
              (* ε ∈ T(Γ′) but ε ∉ T(Γ) *)
              Refuted (certify_inclusion ctx ~lhs ~proj ~rhs Trace.empty)
          | Some rhs0 ->
              Telemetry.with_span "bmc.antichain" @@ fun () ->
              let complete =
                complete && Tset.finitary lhs && Tset.finitary rhs
              in
              let outcome, admitted, st =
                walk ~complete ctx ~alphabet ~depth
                  (Escape (proj, rnode, rhs0))
                  lnode lhs0
              in
              Metrics.add antichain_pairs_c admitted;
              Metrics.add antichain_prunes_c st.Antichain.pruned;
              if Telemetry.enabled () then
                Telemetry.set_attrs
                  [ ("pairs", string_of_int admitted);
                    ("prunes", string_of_int st.Antichain.pruned);
                    ("dropped", string_of_int st.Antichain.dropped) ];
              (match outcome with
              | Found h -> Refuted (certify_inclusion ctx ~lhs ~proj ~rhs h)
              | Exhausted -> Holds Exact
              | Cut -> Holds (Bounded depth))))

(** Bounded trace-set equality: the depth-cut walk both ways over the
    same concrete alphabet (no projection). *)
let check_equal ctx ~alphabet ~depth ~(left : Tset.t) ~(right : Tset.t) :
    (Trace.t * [ `Left_only | `Right_only ]) verdict =
  let included lhs rhs =
    check_inclusion_antichain ~complete:false ctx ~alphabet ~depth ~lhs
      ~proj:Eventset.full ~rhs
  in
  match included left right with
  | Refuted h -> Refuted (h, `Left_only)
  | Holds c1 -> (
      match included right left with
      | Refuted h -> Refuted (h, `Right_only)
      | Holds c2 -> Holds (Verdict.meet c1 c2))

(** {1 Deadlock analysis}

    A reachable monitor state with no enabled event is a deadlock of the
    specification over the given alphabet (Examples 4 and 5 of the
    paper; total deadlock at the start corresponds to a trace set that
    is just {ε}).  The walk is depth-cut: states first reached at depth
    [depth] are not examined. *)
let find_deadlock ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    Trace.t option =
  let n = Tset.node ctx t in
  match Tset.start n with
  | None ->
      (* not even ε: degenerate, report as stuck *)
      Some (certify_deadlock ctx ~alphabet t Trace.empty)
  | Some st0 -> (
      match walk ~complete:false ctx ~alphabet ~depth Stuck n st0 with
      | Found h, _, _ -> Some (certify_deadlock ctx ~alphabet t h)
      | (Exhausted | Cut), _, _ -> None)

(** Reachable monitor states up to [depth]; the state-count metric of
    the performance experiments. *)
let count_states ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) : int =
  let n = Tset.node ctx t in
  match Tset.start n with
  | None -> 0
  | Some st0 ->
      let _, admitted, _ =
        walk ~complete:false ctx ~alphabet ~depth Count n st0
      in
      admitted

(** The events enabled after [h] — the possible extensions within the
    trace set.  Used by example walkthroughs. *)
let enabled ctx ~(alphabet : Event.t array) (t : Tset.t) (h : Trace.t) :
    Event.t list =
  let n = Tset.node ctx t in
  let rec replay st = function
    | [] -> Some st
    | e :: rest -> (
        match Tset.step n st e with
        | Some st' -> replay st' rest
        | None -> None)
  in
  match Tset.start n with
  | None -> []
  | Some st0 -> (
      match replay st0 (Trace.to_list h) with
      | None -> []
      | Some st ->
          Array.to_list alphabet
          |> List.filter (fun e -> Option.is_some (Tset.step n st e)))

(** {1 Counting and enumeration} *)

(** Number of member traces of each length [0..depth], computed by
    dynamic programming over monitor states (no trace explosion). *)
let count_traces ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    int array =
  let counts = Array.make (depth + 1) 0 in
  let n = Tset.node ctx t in
  (match Tset.start n with
  | None -> ()
  | Some st0 ->
      let module SM = Map.Make (struct
        type t = Tset.state

        let compare = Tset.compare_state
      end) in
      let level = ref (SM.singleton st0 1) in
      counts.(0) <- 1;
      for d = 1 to depth do
        let next = ref SM.empty in
        SM.iter
          (fun st k ->
            Array.iter
              (fun e ->
                match Tset.step n st e with
                | Some st' ->
                    next :=
                      SM.update st'
                        (function None -> Some k | Some m -> Some (m + k))
                        !next
                | None -> ())
              alphabet)
          !level;
        level := !next;
        counts.(d) <- SM.fold (fun _ k acc -> acc + k) !level 0
      done);
  counts

(** All member traces up to [depth] — for tests and tiny examples only
    (exponential in general). *)
let enumerate ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    Trace.t list =
  let n = Tset.node ctx t in
  match Tset.start n with
  | None -> []
  | Some st0 ->
      let out = ref [] in
      let rec go st h d =
        out := h :: !out;
        if d < depth then
          Array.iter
            (fun e ->
              match Tset.step n st e with
              | Some st' -> go st' (Trace.snoc h e) (d + 1)
              | None -> ())
            alphabet
      in
      go st0 Trace.empty 0;
      List.rev !out
