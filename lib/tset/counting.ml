(** Counting constraints over event classes.

    Example 3 of the paper constrains traces with arithmetic over event
    counts: P{_RW2}(h) ≜ (#(h/OW) − #(h/CW) = 0 ∨ #(h/OR) − #(h/CR) = 0)
    ∧ #(h/OW) − #(h/CW) ≤ 1.  A constraint is a boolean combination of
    comparisons of linear expressions over the counts of symbolic event
    classes; a trace satisfies the induced trace set when {e every
    prefix} satisfies the formula (largest prefix-closed subset).

    The incremental state is the vector of {e linear-expression values},
    not of raw counts: expression values change by a per-event constant
    (the sum of the coefficients of the classes the event belongs to),
    so they are Markovian, and they stay finite whenever the
    specification bounds them — which keeps monitor state spaces finite
    and lets exploration exhaust them, exactly, for specifications like
    RW. *)

open Posl_sets

type cmp = Le | Ge | Eq

type linexp = (int * int) list
(** Coefficient × class index (into the constraint's class table). *)

type prop =
  | True
  | False
  | Cmp of int * cmp * int  (** atom index, comparison, constant *)
  | And of prop * prop
  | Or of prop * prop
  | Not of prop

type t = {
  classes : Eventset.t array;  (** the event classes being counted *)
  atoms : linexp array;  (** the distinct linear expressions compared *)
  prop : prop;
}

(* A tiny builder DSL.  Classes are registered through [cls]; linear
   expressions are written with [count], [--] and comparison operators,
   and interned into the atom table by [finish]. *)

type exp_prop =
  | P_true
  | P_false
  | P_cmp of linexp * cmp * int
  | P_and of exp_prop * exp_prop
  | P_or of exp_prop * exp_prop
  | P_not of exp_prop

module Build = struct
  type builder = { mutable classes : Eventset.t list; mutable n : int }

  let create () = { classes = []; n = 0 }

  let cls b es =
    let idx = b.n in
    b.classes <- es :: b.classes;
    b.n <- b.n + 1;
    idx

  let count idx : linexp = [ (1, idx) ]

  let ( -- ) (a : linexp) (b : linexp) : linexp =
    a @ List.map (fun (c, i) -> (-c, i)) b

  let ( <=. ) e k = P_cmp (e, Le, k)
  let ( >=. ) e k = P_cmp (e, Ge, k)
  let ( =. ) e k = P_cmp (e, Eq, k)
  let ( &&. ) a b = P_and (a, b)
  let ( ||. ) a b = P_or (a, b)
  let not_ a = P_not a
  let true_ = P_true
  let false_ = P_false

  (* Normalise a linear expression: merge duplicate class indices, drop
     zero coefficients, sort — so structurally different spellings of
     the same expression intern to one atom. *)
  let normalise_linexp (e : linexp) : linexp =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (c, i) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt tbl i) in
        Hashtbl.replace tbl i (prev + c))
      e;
    Hashtbl.fold (fun i c acc -> if c = 0 then acc else (c, i) :: acc) tbl []
    |> List.sort compare

  let finish b p =
    let atoms = ref [] in
    let n_atoms = ref 0 in
    let intern e =
      let e = normalise_linexp e in
      match
        List.find_opt (fun (_, e') -> e' = e) !atoms
      with
      | Some (i, _) -> i
      | None ->
          let i = !n_atoms in
          atoms := (i, e) :: !atoms;
          incr n_atoms;
          i
    in
    let rec conv = function
      | P_true -> True
      | P_false -> False
      | P_cmp (e, c, k) -> Cmp (intern e, c, k)
      | P_and (a, b) -> And (conv a, conv b)
      | P_or (a, b) -> Or (conv a, conv b)
      | P_not a -> Not (conv a)
    in
    let prop = conv p in
    let atom_arr = Array.make !n_atoms [] in
    List.iter (fun (i, e) -> atom_arr.(i) <- e) !atoms;
    { classes = Array.of_list (List.rev b.classes); atoms = atom_arr; prop }
end

let classes t = t.classes
let n_classes t = Array.length t.classes

let rec eval_prop values = function
  | True -> true
  | False -> false
  | Cmp (a, Le, k) -> values.(a) <= k
  | Cmp (a, Ge, k) -> values.(a) >= k
  | Cmp (a, Eq, k) -> values.(a) = k
  | And (a, b) -> eval_prop values a && eval_prop values b
  | Or (a, b) -> eval_prop values a || eval_prop values b
  | Not a -> not (eval_prop values a)

let holds t values = eval_prop values t.prop

(* The per-event delta of an atom: the sum of the coefficients of the
   classes the event belongs to. *)
let atom_delta t (e : linexp) event =
  List.fold_left
    (fun acc (c, i) ->
      if Eventset.mem event t.classes.(i) then acc + c else acc)
    0 e

let delta t event = Array.map (fun e -> atom_delta t e event) t.atoms

(* Advance the expression-value vector by one event. *)
let bump t values event =
  let d = delta t event in
  Array.mapi (fun a v -> v + d.(a)) values

let initial t = Array.make (Array.length t.atoms) 0

(** Non-incremental evaluation on a whole trace prefix — the reference
    semantics used by differential tests. *)
let satisfied_by t h =
  let values =
    List.fold_left (bump t) (initial t) (Posl_trace.Trace.to_list h)
  in
  holds t values

let mentioned t =
  Array.fold_left
    (fun (os, ms, vs) es ->
      let os', ms', vs' = Eventset.mentioned es in
      Posl_ident.(
        ( Oid.Set.union os os',
          Mth.Set.union ms ms',
          Value.Set.union vs vs' )))
    Posl_ident.(Oid.Set.empty, Mth.Set.empty, Value.Set.empty)
    t.classes

let pp_linexp ppf (e : linexp) =
  let pp_term ppf (coeff, i) =
    if coeff = 1 then Format.fprintf ppf "#c%d" i
    else Format.fprintf ppf "%d*#c%d" coeff i
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " + ")
    pp_term ppf e

let pp ppf t =
  let rec pp_prop ppf = function
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Cmp (a, c, k) ->
        let op = match c with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
        Format.fprintf ppf "%a %s %d" pp_linexp t.atoms.(a) op k
    | And (a, b) -> Format.fprintf ppf "(%a /\\ %a)" pp_prop a pp_prop b
    | Or (a, b) -> Format.fprintf ppf "(%a \\/ %a)" pp_prop a pp_prop b
    | Not a -> Format.fprintf ppf "~%a" pp_prop a
  in
  pp_prop ppf t.prop
