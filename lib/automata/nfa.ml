(** Nondeterministic finite automata with ε-transitions.

    NFAs are the intermediate form between the regex layer and DFAs, and
    the natural home of two operations the formalism needs constantly:

    - {b projection} [h/S]: restricting a language to an alphabet by
      replacing erased symbols with ε (the trace-set clause of the
      paper's Def. 2 projects the refined behaviour onto the abstract
      alphabet);
    - {b hiding}: the composition operators (Defs. 4 and 11) delete
      internal events from observable traces, which is the same
      ε-replacement on the internal symbols. *)

module IS = Set.Make (Int)

type t = {
  n_states : int;
  n_syms : int;
  start : IS.t;
  accept : bool array;
  delta : (int * int) list array;  (* state -> (symbol, target) list *)
  eps : int list array;
}

let n_states t = t.n_states
let n_syms t = t.n_syms

let make ~n_states ~n_syms ~start ~accept ~delta ~eps =
  if Array.length accept <> n_states
     || Array.length delta <> n_states
     || Array.length eps <> n_states
  then invalid_arg "Nfa.make: array sizes disagree with n_states";
  { n_states; n_syms; start = IS.of_list start; accept; delta; eps }

let eps_closure t set =
  let seen = Array.make t.n_states false in
  let rec visit q acc =
    if seen.(q) then acc
    else begin
      seen.(q) <- true;
      List.fold_left (fun acc q' -> visit q' acc) (IS.add q acc) t.eps.(q)
    end
  in
  IS.fold visit set IS.empty

let step t set sym =
  let next =
    IS.fold
      (fun q acc ->
        List.fold_left
          (fun acc (s, q') -> if s = sym then IS.add q' acc else acc)
          acc t.delta.(q))
      set IS.empty
  in
  eps_closure t next

let accepts t word =
  let final =
    List.fold_left (fun set sym -> step t set sym) (eps_closure t t.start) word
  in
  IS.exists (fun q -> t.accept.(q)) final

(* Make accepting every state co-reachable from an accepting state
   (through both labelled and ε edges): the automaton of pref(L). *)
let prefix_close t =
  let rev = Array.make t.n_states [] in
  for q = 0 to t.n_states - 1 do
    List.iter (fun (_sym, q') -> rev.(q') <- q :: rev.(q')) t.delta.(q);
    List.iter (fun q' -> rev.(q') <- q :: rev.(q')) t.eps.(q)
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

(* Apply an alphabet homomorphism.  Symbols mapped to [None] are erased
   (become ε): this is trace projection h ↦ h/S when [keep] keeps
   exactly the symbols of S, and hiding of internal events when [keep]
   erases exactly the internal symbols. *)
let project ~n_syms' ~keep t =
  let delta = Array.make t.n_states [] in
  let eps = Array.map (fun l -> l) t.eps in
  for q = 0 to t.n_states - 1 do
    List.iter
      (fun (sym, q') ->
        match keep sym with
        | Some sym' ->
            if sym' < 0 || sym' >= n_syms' then
              invalid_arg "Nfa.project: mapped symbol out of range";
            delta.(q) <- (sym', q') :: delta.(q)
        | None -> eps.(q) <- q' :: eps.(q))
      t.delta.(q)
  done;
  { t with n_syms = n_syms'; delta; eps }

(* Subset construction.  The result is total (a sink arises naturally as
   the empty state set). *)
let to_dfa t =
  let table = Hashtbl.create 64 in
  let states = ref [] in
  let n = ref 0 in
  let intern set =
    let key = IS.elements set in
    match Hashtbl.find_opt table key with
    | Some i -> i
    | None ->
        let i = !n in
        Hashtbl.add table key i;
        states := set :: !states;
        incr n;
        i
  in
  let start_set = eps_closure t t.start in
  let start = intern start_set in
  let queue = Queue.create () in
  Queue.add (start, start_set) queue;
  let transitions = ref [] in
  while not (Queue.is_empty queue) do
    let i, set = Queue.take queue in
    let row = Array.make t.n_syms 0 in
    for sym = 0 to t.n_syms - 1 do
      let next = step t set sym in
      let before = !n in
      let j = intern next in
      row.(sym) <- j;
      if j = before then Queue.add (j, next) queue
    done;
    transitions := (i, row) :: !transitions
  done;
  let n_states = !n in
  let sets = Array.of_list (List.rev !states) in
  let accept =
    Array.init n_states (fun i -> IS.exists (fun q -> t.accept.(q)) sets.(i))
  in
  let delta = Array.make n_states [||] in
  List.iter (fun (i, row) -> delta.(i) <- row) !transitions;
  (* Symbol-free alphabets still need well-formed rows. *)
  Array.iteri
    (fun i row -> if Array.length row <> t.n_syms then delta.(i) <- Array.make t.n_syms i)
    delta;
  Dfa.make ~n_states ~n_syms:t.n_syms ~start ~accept ~delta
