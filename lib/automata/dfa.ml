(** Deterministic finite automata over an integer-indexed alphabet.

    The exact decision procedures for trace-set inclusion (clause 3 of
    the paper's Def. 2) and for the observable behaviour of compositions
    reduce to standard language operations on finite automata once the
    trace sets are concretised over a finite universe.  DFAs here are
    total: every state has a transition on every symbol (a rejecting
    sink is added where needed). *)

type t = {
  n_states : int;
  n_syms : int;
  start : int;
  accept : bool array;
  delta : int array array;  (* delta.(state).(symbol) *)
}

let n_states t = t.n_states
let n_syms t = t.n_syms

let make ~n_states ~n_syms ~start ~accept ~delta =
  if n_states <= 0 then invalid_arg "Dfa.make: need at least one state";
  if Array.length accept <> n_states || Array.length delta <> n_states then
    invalid_arg "Dfa.make: array sizes disagree with n_states";
  Array.iter
    (fun row ->
      if Array.length row <> n_syms then
        invalid_arg "Dfa.make: transition row size disagrees with n_syms";
      Array.iter
        (fun q ->
          if q < 0 || q >= n_states then
            invalid_arg "Dfa.make: transition target out of range")
        row)
    delta;
  { n_states; n_syms; start; accept; delta }

let step t q sym = t.delta.(q).(sym)
let start t = t.start
let accept_state t q = t.accept.(q)

let run t word =
  List.fold_left (fun q sym -> step t q sym) t.start word

let accepts t word = t.accept.(run t word)

(* The DFA accepting no word. *)
let empty ~n_syms =
  make ~n_states:1 ~n_syms ~start:0 ~accept:[| false |]
    ~delta:[| Array.make n_syms 0 |]

(* The DFA accepting every word. *)
let all ~n_syms =
  make ~n_states:1 ~n_syms ~start:0 ~accept:[| true |]
    ~delta:[| Array.make n_syms 0 |]

let complement t = { t with accept = Array.map not t.accept }

let reachable t =
  let seen = Array.make t.n_states false in
  let rec visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter visit t.delta.(q)
    end
  in
  visit t.start;
  seen

(* Product construction; [combine] selects intersection (&&), union
   (||), difference, ... of the two languages. *)
let product ~combine a b =
  if a.n_syms <> b.n_syms then invalid_arg "Dfa.product: alphabets differ";
  let n_states = a.n_states * b.n_states in
  let pair qa qb = (qa * b.n_states) + qb in
  let accept = Array.make n_states false in
  let delta = Array.make_matrix n_states a.n_syms 0 in
  for qa = 0 to a.n_states - 1 do
    for qb = 0 to b.n_states - 1 do
      let q = pair qa qb in
      accept.(q) <- combine a.accept.(qa) b.accept.(qb);
      for sym = 0 to a.n_syms - 1 do
        delta.(q).(sym) <- pair a.delta.(qa).(sym) b.delta.(qb).(sym)
      done
    done
  done;
  make ~n_states ~n_syms:a.n_syms ~start:(pair a.start b.start) ~accept ~delta

let inter = product ~combine:( && )
let union = product ~combine:( || )

(* Shortest accepted word, via breadth-first search; [None] if the
   language is empty.  Doubles as the counterexample extractor of the
   inclusion check. *)
let shortest_accepted t =
  if t.accept.(t.start) then Some []
  else begin
    let parent = Array.make t.n_states None in
    let visited = Array.make t.n_states false in
    let queue = Queue.create () in
    visited.(t.start) <- true;
    Queue.add t.start queue;
    let found = ref None in
    (try
       while not (Queue.is_empty queue) do
         let q = Queue.take queue in
         for sym = 0 to t.n_syms - 1 do
           let q' = t.delta.(q).(sym) in
           if not visited.(q') then begin
             visited.(q') <- true;
             parent.(q') <- Some (q, sym);
             if t.accept.(q') then begin
               found := Some q';
               raise Exit
             end;
             Queue.add q' queue
           end
         done
       done
     with Exit -> ());
    match !found with
    | None -> None
    | Some q_accept ->
        let rec build acc q =
          match parent.(q) with
          | None -> acc
          | Some (q', sym) -> build (sym :: acc) q'
        in
        Some (build [] q_accept)
  end

let is_empty t = Option.is_none (shortest_accepted t)

(* [included a b] decides L(a) ⊆ L(b); on failure returns a shortest
   word accepted by [a] but not [b]. *)
let included a b =
  match shortest_accepted (inter a (complement b)) with
  | None -> Ok ()
  | Some word -> Error word

(* Inverse-homomorphism lift: from a DFA over a sub-alphabet to a DFA
   over a larger alphabet in which the extra symbols are ignored
   (self-loops).  [map sym] gives the sub-alphabet symbol of [sym], or
   [None] when [sym] is outside the sub-alphabet.  The result recognises
   {h | h/sub ∈ L(d)} — the projection-membership sets at the heart of
   the paper's refinement clause 3 and composition rule. *)
let lift ~n_syms ~map d =
  let delta =
    Array.init d.n_states (fun q ->
        Array.init n_syms (fun sym ->
            match map sym with Some s -> d.delta.(q).(s) | None -> q))
  in
  make ~n_states:d.n_states ~n_syms ~start:d.start
    ~accept:(Array.copy d.accept) ~delta

(* Make accepting every state from which an accepting state is
   reachable: turns the automaton of L into the automaton of the
   prefix closure pref(L).  This realises the paper's [prs] operator at
   the automaton level. *)
let prefix_close t =
  (* Reverse reachability from accepting states. *)
  let rev = Array.make t.n_states [] in
  for q = 0 to t.n_states - 1 do
    Array.iter (fun q' -> rev.(q') <- q :: rev.(q')) t.delta.(q)
  done;
  let co = Array.make t.n_states false in
  let rec visit q =
    if not co.(q) then begin
      co.(q) <- true;
      List.iter visit rev.(q)
    end
  in
  Array.iteri (fun q acc -> if acc then visit q) t.accept;
  { t with accept = co }

(* Moore's partition-refinement minimisation, preceded by removal of
   unreachable states.  O(n²·k) worst case, which is ample for the
   automata produced here; chosen over Hopcroft for the simplicity of a
   fixpoint that is easy to audit. *)
let minimize t =
  (* Restrict to reachable states. *)
  let seen = reachable t in
  let old_of_new = ref [] in
  let new_of_old = Array.make t.n_states (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q r ->
      if r then begin
        new_of_old.(q) <- !count;
        old_of_new := q :: !old_of_new;
        incr count
      end)
    seen;
  let old_of_new = Array.of_list (List.rev !old_of_new) in
  let n = !count in
  let accept = Array.init n (fun q -> t.accept.(old_of_new.(q))) in
  let delta =
    Array.init n (fun q ->
        Array.init t.n_syms (fun sym ->
            new_of_old.(t.delta.(old_of_new.(q)).(sym))))
  in
  (* Refine blocks until stable: two states stay together iff they have
     the same acceptance flag and, for every symbol, their successors
     lie in the same current block. *)
  let block_of = Array.init n (fun q -> if accept.(q) then 1 else 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    let signature q =
      (block_of.(q), Array.init t.n_syms (fun sym -> block_of.(delta.(q).(sym))))
    in
    let table = Hashtbl.create 16 in
    let next = ref 0 in
    let new_block = Array.make n (-1) in
    for q = 0 to n - 1 do
      let s = signature q in
      match Hashtbl.find_opt table s with
      | Some b -> new_block.(q) <- b
      | None ->
          Hashtbl.add table s !next;
          new_block.(q) <- !next;
          incr next
    done;
    if Array.exists2 (fun a b -> a <> b) block_of new_block then changed := true;
    Array.blit new_block 0 block_of 0 n
  done;
  let n' = 1 + Array.fold_left max (-1) block_of in
  let repr = Array.make n' (-1) in
  Array.iteri (fun q b -> if repr.(b) < 0 then repr.(b) <- q) block_of;
  let accept' = Array.init n' (fun b -> accept.(repr.(b))) in
  let delta' =
    Array.init n' (fun b ->
        Array.init t.n_syms (fun sym -> block_of.(delta.(repr.(b)).(sym))))
  in
  make ~n_states:n' ~n_syms:t.n_syms ~start:block_of.(new_of_old.(t.start))
    ~accept:accept' ~delta:delta'
