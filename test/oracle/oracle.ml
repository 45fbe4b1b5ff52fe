(* Differential oracles for the product walk: compiled-DFA decisions,
   a serial level-wise exploration, and deadlock and response
   obligations by enumeration.  See oracle.mli. *)

open Posl_ident
open Posl_sets
module Tset = Posl_tset.Tset
module Event = Posl_trace.Event
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Spec = Posl_core.Spec
module Verdict = Posl_verdict.Verdict
module Dfa = Posl_automata.Dfa

(* {1 Compilation to automata} *)

let compile ?(max_states = 200_000) c (events : Event.t array) t =
  let node = Tset.node c t in
  match Tset.start node with
  | None -> Some (Dfa.empty ~n_syms:(Array.length events))
  | Some init -> (
      let module SM = Map.Make (struct
        type t = Tset.state

        let compare = Tset.compare_state
      end) in
      let index = ref SM.empty in
      let n = ref 1 (* 0 is the sink *) in
      let intern st =
        match SM.find_opt st !index with
        | Some i -> (i, false)
        | None ->
            let i = !n in
            index := SM.add st i !index;
            incr n;
            (i, true)
      in
      let i0, _ = intern init in
      let queue = Queue.create () in
      Queue.add (i0, init) queue;
      let rows = ref [] in
      try
        while not (Queue.is_empty queue) do
          let i, st = Queue.take queue in
          let row = Array.make (Array.length events) 0 in
          Array.iteri
            (fun sym e ->
              match Tset.step node st e with
              | None -> row.(sym) <- 0
              | Some st' ->
                  let j, fresh = intern st' in
                  row.(sym) <- j;
                  if fresh then Queue.add (j, st') queue;
                  if !n > max_states then raise Exit)
            events;
          rows := (i, row) :: !rows
        done;
        let n_states = !n and n_syms = Array.length events in
        let delta = Array.init n_states (fun _ -> Array.make n_syms 0) in
        List.iter (fun (i, row) -> delta.(i) <- row) !rows;
        let accept = Array.make n_states true in
        accept.(0) <- false;
        Some (Dfa.make ~n_states ~n_syms ~start:i0 ~accept ~delta)
      with Exit | Tset.Closure_overflow _ -> None)

let word_trace alphabet w = Trace.of_list (List.map (fun s -> alphabet.(s)) w)

(* Clause 3 on compiled automata: the lhs DFA over the whole alphabet,
   the rhs DFA over the projected symbols lifted back (symbols outside
   α(Γ) self-loop), then plain language inclusion.  [None] when either
   monitor does not compile. *)
let inclusion ctx ~(alphabet : Event.t array) ~proj ~lhs ~rhs =
  let keep =
    List.filter
      (fun i -> Eventset.mem alphabet.(i) proj)
      (List.init (Array.length alphabet) Fun.id)
  in
  let kept = Array.of_list (List.map (fun i -> alphabet.(i)) keep) in
  let sym_map = Array.make (Array.length alphabet) None in
  List.iteri (fun j i -> sym_map.(i) <- Some j) keep;
  match (compile ctx alphabet lhs, compile ctx kept rhs) with
  | Some lhs_dfa, Some rhs_dfa ->
      let lifted =
        Dfa.lift ~n_syms:(Array.length alphabet)
          ~map:(fun sym -> sym_map.(sym))
          rhs_dfa
      in
      Some
        (Result.map_error (word_trace alphabet) (Dfa.included lhs_dfa lifted))
  | _ -> None

(* {1 Level-wise exploration} *)

let inclusion_levelwise ctx ~(alphabet : Event.t array) ~depth ~lhs ~proj
    ~rhs =
  let module SM = Set.Make (struct
    type t = Tset.state * Tset.state

    let compare (a, b) (c, d) =
      match Tset.compare_state a c with 0 -> Tset.compare_state b d | n -> n
  end) in
  let lhs = Tset.node ctx lhs and rhs = Tset.node ctx rhs in
  match (Tset.start lhs, Tset.start rhs) with
  | None, _ -> Bmc.Holds Bmc.Exact
  | Some _, None -> Bmc.Refuted Trace.empty
  | Some l0, Some r0 -> (
      let visited = ref (SM.singleton (l0, r0)) in
      let exception Escape of Trace.t in
      (* Successors of one pair in alphabet order; an rhs death inside
         the projection is the answer. *)
      let expand ((l, r), h) =
        Array.to_list alphabet
        |> List.filter_map (fun e ->
               match Tset.step lhs l e with
               | None -> None
               | Some l' ->
                   let h' = Trace.snoc h e in
                   if not (Eventset.mem e proj) then Some ((l', r), h')
                   else (
                     match Tset.step rhs r e with
                     | None -> raise (Escape h')
                     | Some r' -> Some ((l', r'), h')))
      in
      let rec level d frontier =
        if frontier = [] then Bmc.Holds Bmc.Exact
        else if d >= depth then Bmc.Holds (Bmc.Bounded depth)
        else
          List.concat_map expand frontier
          |> List.filter (fun (k, _) ->
                 if SM.mem k !visited then false
                 else begin
                   visited := SM.add k !visited;
                   true
                 end)
          |> level (d + 1)
      in
      try level 0 [ ((l0, r0), Trace.empty) ] with Escape h -> Bmc.Refuted h)

(* {1 Refinement and equality as the verdicts report them} *)

type route = Automata | Bounded | Legacy_auto

let refine route ?(depth = 6) ctx (gamma' : Spec.t) (gamma : Spec.t) =
  let missing_objs = Oid.Set.diff (Spec.objs gamma) (Spec.objs gamma') in
  let missing_alpha =
    Eventset.normalise (Eventset.diff (Spec.alpha gamma) (Spec.alpha gamma'))
  in
  let proj = Spec.alpha gamma in
  let escape h =
    Verdict.Trace_escape
      { trace = h; projected = Eventset.restrict_trace proj h }
  in
  let procedure, v =
    if not (Oid.Set.is_empty missing_objs) then
      ( Verdict.Symbolic,
        Verdict.refuted ~confidence:Exact
          [ Verdict.Objects_missing missing_objs ] )
    else if not (Eventset.is_empty missing_alpha) then
      ( Verdict.Symbolic,
        Verdict.refuted ~confidence:Exact
          [ Verdict.Events_missing missing_alpha ] )
    else
      let alphabet = Spec.concrete_alphabet (Tset.universe ctx) gamma' in
      let lhs = Spec.tset gamma' and rhs = Spec.tset gamma in
      let automata () =
        match inclusion ctx ~alphabet ~proj ~lhs ~rhs with
        | Some (Ok ()) ->
            Some (Verdict.Automata, Verdict.holds ~confidence:Exact ())
        | Some (Error h) ->
            Some
              (Verdict.Automata, Verdict.refuted ~confidence:Exact [ escape h ])
        | None -> None
      in
      let bounded () =
        ( Verdict.Bounded_search,
          match inclusion_levelwise ctx ~alphabet ~depth ~lhs ~proj ~rhs with
          | Bmc.Holds c -> Verdict.holds ~confidence:c ()
          | Bmc.Refuted h -> Verdict.refuted ~confidence:Exact [ escape h ] )
      in
      match route with
      | Bounded -> bounded ()
      | Automata -> (
          match automata () with
          | Some r -> r
          | None -> invalid_arg "Oracle.refine: monitors do not compile")
      | Legacy_auto -> (
          match automata () with Some r -> r | None -> bounded ())
  in
  Verdict.with_context ~procedure ~depth v

let tset_equal ctx ~depth (a : Spec.t) (b : Spec.t) =
  let alphabet =
    Array.of_list
      (Eventset.sample (Tset.universe ctx)
         (Eventset.union (Spec.alpha a) (Spec.alpha b)))
  in
  let fail h side =
    Verdict.refuted
      [
        Verdict.Equality_witness
          { trace = h; side; left = Spec.name a; right = Spec.name b };
      ]
  in
  match
    (compile ctx alphabet (Spec.tset a), compile ctx alphabet (Spec.tset b))
  with
  | Some da, Some db ->
      Verdict.with_context ~procedure:Verdict.Automata
        (match (Dfa.included da db, Dfa.included db da) with
        | Error w, _ -> fail (word_trace alphabet w) `Left_only
        | Ok (), Error w -> fail (word_trace alphabet w) `Right_only
        | Ok (), Ok () -> Verdict.holds ~confidence:Exact ())
  | _ ->
      Verdict.with_context ~procedure:Verdict.Bounded_search ~depth
        (match
           Bmc.check_equal ctx ~alphabet ~depth ~left:(Spec.tset a)
             ~right:(Spec.tset b)
         with
        | Bmc.Holds c -> Verdict.holds ~confidence:c ()
        | Bmc.Refuted (h, side) -> fail h side)

(* {1 Deadlock and obligations by enumeration} *)

(* Traces in (length, alphabet position of each event) order. *)
let in_walk_order (alphabet : Event.t array) traces =
  let index e =
    let rec go i = if Event.equal alphabet.(i) e then i else go (i + 1) in
    go 0
  in
  let key h = (Trace.length h, List.map index (Trace.to_list h)) in
  List.sort (fun h1 h2 -> compare (key h1) (key h2)) traces

let first_stuck ctx ~(alphabet : Event.t array) ~depth t =
  if not (Tset.mem_naive ctx t Trace.empty) then Some Trace.empty
  else if depth <= 0 then None
  else
    Bmc.enumerate ctx ~alphabet ~depth:(depth - 1) t
    |> in_walk_order alphabet
    |> List.find_opt (fun h ->
           Array.for_all
             (fun e -> not (Tset.mem_naive ctx t (Trace.snoc h e)))
             alphabet)

let first_unanswered ctx ~(alphabet : Event.t array) ~depth ~trigger ~response
    t =
  let opened h =
    List.fold_left
      (fun k e ->
        max 0
          (k
          + Bool.to_int (Eventset.mem e trigger)
          - Bool.to_int (Eventset.mem e response)))
      0 (Trace.to_list h)
  in
  (* some member extension of h by 1 to k events ends in a response *)
  let rec answerable h k =
    k > 0
    && Array.exists
         (fun e ->
           let h' = Trace.snoc h e in
           Tset.mem_naive ctx t h'
           && (Eventset.mem e response || answerable h' (k - 1)))
         alphabet
  in
  Bmc.enumerate ctx ~alphabet ~depth t
  |> in_walk_order alphabet
  |> List.find_opt (fun h ->
         (not (Trace.is_empty h))
         && opened h > 0
         && not (answerable h (depth + 1)))

(* {1 Counting} *)

let count_members ctx ~(alphabet : Event.t array) ~depth t =
  let module SM = Map.Make (struct
    type t = Tset.state

    let compare = Tset.compare_state
  end) in
  let counts = Array.make (depth + 1) 0 in
  let n = Tset.node ctx t in
  (* [level d states]: the states of length-[d] members, each with the
     number of members reaching it *)
  let rec level d states =
    counts.(d) <- SM.fold (fun _ k acc -> acc + k) states 0;
    if d < depth then
      SM.fold
        (fun st k next ->
          Array.fold_left
            (fun next e ->
              match Tset.step n st e with
              | Some st' ->
                  SM.update st'
                    (fun k' -> Some (k + Option.value ~default:0 k'))
                    next
              | None -> next)
            next alphabet)
        states SM.empty
      |> level (d + 1)
  in
  Option.iter (fun st0 -> level 0 (SM.singleton st0 1)) (Tset.start n);
  counts
