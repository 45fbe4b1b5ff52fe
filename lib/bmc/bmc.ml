(** State-space exploration over trace-set monitors.

    The verification questions of the paper that are not purely
    set-algebraic all reduce to reachability over the product of
    trace-set monitors:

    - clause 3 of refinement (Def. 2): every trace of Γ′ projects into
      T(Γ) — an inclusion between the survival language of one monitor
      and the (projected) survival language of another;
    - trace-set equality of compositions (Example 6);
    - deadlock analysis (Examples 4 and 5): reachable monitor states
      with no enabled events;
    - the response obligations of the liveness extension
      ([posl.live]): a reachable trace that leaves a trigger open at a
      state from which no response event is reachable.

    All of them are answered by one product walk ({!walk}),
    breadth-first over interned monitor states.  When the reachable
    state space is exhausted, the verdict holds for {e all} depths over
    the given concrete alphabet and is reported {!Exact}; otherwise it
    is {!Bounded} by the depth.  Replaying a trace ({!enabled}) and
    counting traces ({!count_traces}) read the same successor rows;
    only {!enumerate}, the structural reference the tests compare
    against, steps structural states.

    The escape questions (inclusion, equality) and the stuck question
    (deadlock) explore each orbit of interchangeable objects once: the
    universe objects a question does not mention ({!symmetric}) are
    brought into use in universe order only, so a question over k of
    them walks one relabelling of each trace instead of up to k!.
    Witnesses and confidences are those of the full walk.  State
    counting and Live's reach and obligation questions keep the full
    walk. *)

module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Eventset = Posl_sets.Eventset
module Oid = Posl_ident.Oid
module Universe = Posl_ident.Universe
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

(* h witnesses an unanswered obligation of t only if h ∈ t; that it
   leaves a trigger open where no response is reachable is the walk's
   claim. *)
let certify_unanswered ctx t h =
  if not (Tset.mem_naive ctx t h) then
    Verdict.uncertified
      "obligation witness %a is not a trace of the specification" Trace.pp h;
  h

(** {1 Symmetric objects}

    A question's {e symmetric objects} are the universe objects, in
    universe order, that it cannot tell apart:

    - neither monitor ([Tset.mentioned]) nor the projection
      ([Eventset.mentioned]) names them, and both monitors are
      {!Tset.finitary}: a [Pointwise] predicate may single out any
      object, while a [Forall_obj] body is assumed uniform over the sort
      members it does not name;
    - the concrete alphabet is closed under swapping any two of them;
    - every event that uses the later of two but not the earlier comes
      after its swap.  That is the order [Eventset.sample] lists events
      in (rect by rect, callers then callees in universe order), the
      order [Spec.concrete_alphabet] and [Theory.tset_equal] pass on;
      another order keeps the full walk.

    Renaming symmetric objects then maps the walk's graph onto itself,
    answers included.  A walk with them admits only steps that bring
    them into use in universe order: a pair carries m, how many are in
    use (objects 0 to m − 1), and a step is taken only when each
    symmetric object it uses is below m or is the next one (m, then
    m + 1).  The steps left out are mirror images of steps taken.
    Three facts make this exact:

    - every trace has a relabelling in first-use order, of the same
      length, which answers iff the trace does;
    - the lexicographically-least shortest answer is in first-use order
      already: a trace that brings object b into use while a lower a is
      unused has a twin with a and b swapped, equal up to that event
      and alphabet-earlier at it.  So the walk's witness is the full
      walk's;
    - a state first reached with objects 0 to m − 1 in use looks the
      same under any renaming of the others, so the steps taken from it
      reach a relabelling of everything reachable from it, under any
      count.  A pair is therefore visited once, whatever count it
      arrives with, and a pruned pair's answers map to the pruning
      pair's by monotonicity and symmetry: exhaustion stays [Exact].

    This is the simplest form of Ip and Dill's scalarsets ("Better
    Verification Through Symmetry", FMSD 1996). *)

(* For each alphabet event, the least and the greatest index of a
   symmetric object it uses ([lo = hi] when one, [-1] when none). *)
type uses = { lo : int array; hi : int array }

(* The symmetric objects' uses by the events of [alphabet], or [None]
   when fewer than two objects qualify — then nothing more is
   computed. *)
let symmetric ctx ~(alphabet : Event.t array) ~proj (monitors : Tset.t list)
    : uses option =
  if not (List.for_all Tset.finitary monitors) then None
  else
    let objects (os, _, _) = os in
    let named =
      List.fold_left
        (fun acc t -> Oid.Set.union acc (objects (Tset.mentioned t)))
        (objects (Eventset.mentioned proj))
        monitors
    in
    let sym =
      Universe.objects (Tset.universe ctx)
      |> List.filter (fun o -> not (Oid.Set.mem o named))
      |> Array.of_list
    in
    let k = Array.length sym in
    if k < 2 then None
    else
      let index o =
        let rec find i =
          if i = k then -1 else if Oid.equal sym.(i) o then i else find (i + 1)
        in
        find 0
      in
      let n = Array.length alphabet in
      let lo = Array.make n (-1) and hi = Array.make n (-1) in
      (* each event's position, which the order check reads: an
         alphabet listing an event twice keeps the full walk *)
      let position = Hashtbl.create n in
      let exception Asymmetric in
      let locate s e =
        let a = index (Event.caller e) and b = index (Event.callee e) in
        lo.(s) <- (if a < 0 || b < 0 then max a b else min a b);
        hi.(s) <- max a b;
        if Hashtbl.mem position e then raise_notrace Asymmetric;
        Hashtbl.add position e s
      in
      let swap a b e =
        let rename o =
          if Oid.equal o sym.(a) then sym.(b)
          else if Oid.equal o sym.(b) then sym.(a)
          else o
        in
        Event.make ?arg:(Event.arg e)
          ~caller:(rename (Event.caller e))
          ~callee:(rename (Event.callee e))
          (Event.mth e)
      in
      (* the swap of every event exists, and comes first where the
         event uses the later object only *)
      let check s e =
        let uses x = x = lo.(s) || x = hi.(s) in
        for a = 0 to k - 2 do
          for b = a + 1 to k - 1 do
            if uses a || uses b then
              match Hashtbl.find_opt position (swap a b e) with
              | None -> raise_notrace Asymmetric
              | Some s' ->
                  if uses b && (not (uses a)) && s' > s then
                    raise_notrace Asymmetric
          done
        done
      in
      try
        Array.iteri locate alphabet;
        Array.iteri (fun s e -> if hi.(s) >= 0 then check s e) alphabet;
        Some { lo; hi }
      with Asymmetric -> None

(* The count of symmetric objects in use after the step at symbol [s]
   from a pair with [m] in use, or [-1] when the step brings one into
   use out of universe order. *)
let introduce { lo; hi } m s =
  let hi = hi.(s) in
  if hi < m then m
  else
    let lo = lo.(s) in
    if lo < m || lo = hi then if hi = m then m + 1 else -1
    else if lo = m && hi = m + 1 then m + 2
    else -1

(** {1 The product walk}

    One breadth-first walk over the product of a [lhs] monitor with a
    second component [r], on interned small-int state ids with
    memoized successor rows.  A step of [lhs] at event [s] moves [r]
    only where the question's mask holds, and answers when [r] dies
    (becomes [-1]).  The questions:

    - [Escape (proj, rhs, rhs0)]: [r] is an [rhs] state (started in
      [rhs0]), moved at events of [proj]; it dies when [rhs] cannot
      follow — inclusion, and equality run both ways;
    - [Reach set]: [r] dies at any event of [set] — is one reachable?;
    - [Unanswered (trigger, response)]: [r] counts the open triggers
      (triggers minus responses, clipped at 0) and dies when a step
      leaves one open at an [lhs] state from which no response is
      reachable within [depth + 1] steps: a [Reach response] walk from
      that state id, memoized per id;
    - [Stuck]: [r] stays 0; a reachable [lhs] state with no live
      successor answers — deadlock;
    - [Count]: none; the walk runs to its cut and counts states.

    Pairs are de-duplicated by packed [(lhs, r)] id; when the rhs
    state is a [Product] (the one genuinely set-shaped state kind — its
    hidden-event closure is a subset construction over composites), a
    pair is additionally pruned when an already-visited pair with the
    same lhs state has a ⊆-smaller rhs macro-state ({!Antichain}).
    Exhaustion of the (pruned) frontier is still exact: macro stepping
    is monotone, so everything reachable from a pruned pair is covered
    by the minimal pair that pruned it.  Discovery follows alphabet
    order, so the first answer found carries the lexicographically-least
    shortest trace.

    With [~sym] (the escape and stuck questions, when two or more
    objects are symmetric) a frontier pair also carries how many
    symmetric objects are in use, and a step that would bring one into
    use out of universe order is not taken; the pair order ignores the
    count ({!symmetric} says why).  Without it every step is taken.

    With [~complete:false] the walk cuts at [depth]: states at depth
    [depth] are admitted but not expanded.  With [~complete:true] it
    runs past [depth] until the frontier is exhausted or more than
    {!budget} pairs have been admitted.  Inclusion asks for completion
    only when both monitors are {!Tset.finitary}: a [Pointwise] member
    mints a fresh state per path, so completion would enumerate paths
    exponentially. *)

type question =
  | Escape of Eventset.t * Tset.node * Tset.state
  | Reach of Eventset.t
  | Unanswered of Eventset.t * Eventset.t
  | Stuck
  | Count

type outcome = Found of Trace.t | Exhausted | Cut

(* Pair admissions after which a complete walk stops at the next level
   at or past the depth bound. *)
let budget = 200_000

exception Answer of Trace.t

let rec walk ~complete ?sym ctx ~(alphabet : Event.t array) ~depth question
    (lhs : Tset.node) (l0 : int) : outcome * int * Antichain.stats =
  let n = Array.length alphabet in
  (* [count m s]: symmetric objects in use after a step at [s] from [m],
     [-1] for a step not taken *)
  let count = match sym with Some u -> introduce u | None -> fun m _ -> m in
  let eids = Array.map (Tset.event_id ctx) alphabet in
  (* Successor cells are the nodes' own rows ({!Tset.step_id}), filled
     lazily — rhs states are only stepped at symbols where the lhs
     survives, and never outside the projection — and kept for the
     context's lifetime, so a monitor appearing in many questions —
     every corpus spec does — steps each state once per context. *)
  let cell node id s = Tset.step_id node ~event_id:eids.(s) id alphabet.(s) in
  let lcell = cell lhs in
  let mask set = Array.map (fun e -> Eventset.mem e set) alphabet in
  let no_macro _ = None in
  (* [rstep l' r s]: the second component after the step to [l'] at
     symbol [s], where the mask holds; [-1] answers. *)
  let rmask, rstep, r0, macro =
    match question with
    | Escape (proj, rhs, rhs0) ->
        ( mask proj,
          (fun _ r s -> cell rhs r s),
          Tset.intern_state ctx rhs0,
          Tset.macro_of_id ctx )
    | Reach set -> (mask set, (fun _ _ _ -> -1), 0, no_macro)
    | Unanswered (trigger, response) ->
        let delta =
          Array.map
            (fun e ->
              Bool.to_int (Eventset.mem e trigger)
              - Bool.to_int (Eventset.mem e response))
            alphabet
        in
        let memo = Hashtbl.create 16 in
        let answerable l =
          match Hashtbl.find_opt memo l with
          | Some b -> b
          | None ->
              let b =
                match
                  walk ~complete:false ctx ~alphabet ~depth:(depth + 1)
                    (Reach response) lhs l
                with
                | Found _, _, _ -> true
                | (Exhausted | Cut), _, _ -> false
              in
              Hashtbl.add memo l b;
              b
        in
        ( Array.make n true,
          (fun l' r s ->
            let r' = max 0 (r + delta.(s)) in
            if r' > 0 && not (answerable l') then -1 else r'),
          0,
          no_macro )
    | Stuck | Count -> (Array.make n false, (fun _ r _ -> r), 0, no_macro)
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
  ignore (admit l0 r0);
  let stuck =
    match question with
    | Stuck -> true
    | Escape _ | Reach _ | Unanswered _ | Count -> false
  in
  (* Frontier traces are kept reversed, so admitting a pair is one cons
     however deep the walk goes; only an answer's trace is turned
     round. *)
  let answer rev_h = raise (Answer (Trace.of_list (List.rev rev_h))) in
  let expand (l, r, m, rev_h) next =
    let live = ref false in
    for s = 0 to n - 1 do
      let m' = count m s in
      if m' >= 0 then begin
        let l' = lcell l s in
        if l' >= 0 then begin
          live := true;
          let r' = if rmask.(s) then rstep l' r s else r in
          if r' < 0 then answer (alphabet.(s) :: rev_h);
          if admit l' r' then
            next := (l', r', m', alphabet.(s) :: rev_h) :: !next
        end
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
    try level 0 [ (l0, r0, 0, []) ] with Answer h -> Found h
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
              let sym = symmetric ctx ~alphabet ~proj [ lhs; rhs ] in
              let outcome, admitted, st =
                walk ~complete ?sym ctx ~alphabet ~depth
                  (Escape (proj, rnode, rhs0))
                  lnode (Tset.intern_state ctx lhs0)
              in
              Metrics.add antichain_pairs_c admitted;
              Metrics.add antichain_prunes_c st.Antichain.pruned;
              if Telemetry.enabled () then
                Telemetry.set_attrs
                  [ ("pairs", string_of_int admitted);
                    ("prunes", string_of_int st.Antichain.pruned);
                    ("dropped", string_of_int st.Antichain.dropped);
                    ("symmetric", string_of_bool (Option.is_some sym)) ];
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
      let sym = symmetric ctx ~alphabet ~proj:Eventset.empty [ t ] in
      match
        walk ~complete:false ?sym ctx ~alphabet ~depth Stuck n
          (Tset.intern_state ctx st0)
      with
      | Found h, _, _ -> Some (certify_deadlock ctx ~alphabet t h)
      | (Exhausted | Cut), _, _ -> None)

(** {1 Response obligations}

    A trace of length at most [depth] that leaves a [trigger] open
    (more triggers than responses, counted with the open count clipped
    at 0) at a state from which no [response] event is reachable within
    [depth + 1] steps refutes the obligation.  Depth-cut; [Exact] when
    the (state, open count) pairs are exhausted first. *)
let find_unanswered ctx ~(alphabet : Event.t array) ~depth ~trigger ~response
    (t : Tset.t) : Trace.t verdict =
  let n = Tset.node ctx t in
  match Tset.start n with
  | None -> Holds Exact
  | Some st0 -> (
      match
        walk ~complete:false ctx ~alphabet ~depth
          (Unanswered (trigger, response))
          n (Tset.intern_state ctx st0)
      with
      | Found h, _, _ -> Refuted (certify_unanswered ctx t h)
      | Exhausted, _, _ -> Holds Exact
      | Cut, _, _ -> Holds (Bounded depth))

(** Reachable monitor states up to [depth]; the state-count metric of
    the performance experiments. *)
let count_states ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) : int =
  let n = Tset.node ctx t in
  match Tset.start n with
  | None -> 0
  | Some st0 ->
      let _, admitted, _ =
        walk ~complete:false ctx ~alphabet ~depth Count n
          (Tset.intern_state ctx st0)
      in
      admitted

(** {1 Reading the successor rows} *)

(** The events enabled after [h] — the possible extensions within the
    trace set.  Used by example walkthroughs. *)
let enabled ctx ~(alphabet : Event.t array) (t : Tset.t) (h : Trace.t) :
    Event.t list =
  let n = Tset.node ctx t in
  let step id e =
    if id < 0 then id else Tset.step_id n ~event_id:(Tset.event_id ctx e) id e
  in
  match Tset.start n with
  | None -> []
  | Some st0 ->
      let id =
        List.fold_left step (Tset.intern_state ctx st0) (Trace.to_list h)
      in
      if id < 0 then []
      else Array.to_list alphabet |> List.filter (fun e -> step id e >= 0)

(** Number of member traces of each length [0..depth], computed by
    dynamic programming over interned monitor states (no trace
    explosion). *)
let count_traces ctx ~(alphabet : Event.t array) ~depth (t : Tset.t) :
    int array =
  let counts = Array.make (depth + 1) 0 in
  let n = Tset.node ctx t in
  (match Tset.start n with
  | None -> ()
  | Some st0 ->
      let eids = Array.map (Tset.event_id ctx) alphabet in
      (* (state id, traces reaching it) for the current length *)
      let level = ref [ (Tset.intern_state ctx st0, 1) ] in
      counts.(0) <- 1;
      for d = 1 to depth do
        let next = Hashtbl.create 64 in
        List.iter
          (fun (id, k) ->
            Array.iteri
              (fun s e ->
                let id' = Tset.step_id n ~event_id:eids.(s) id e in
                if id' >= 0 then
                  Hashtbl.replace next id'
                    (k + Option.value ~default:0 (Hashtbl.find_opt next id')))
              alphabet)
          !level;
        level := Hashtbl.fold (fun id k acc -> (id, k) :: acc) next [];
        counts.(d) <- List.fold_left (fun acc (_, k) -> acc + k) 0 !level
      done);
  counts

(** All member traces up to [depth], stepping structural states — the
    reference the walk is tested against, and tiny examples (exponential
    in general). *)
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
