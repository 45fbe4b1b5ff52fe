(** Selectors over the optional data argument of an event.

    The argument domain is [Data ⊎ {no argument}]: method calls either
    carry one data value ([W(d)]) or none ([OW]).  A selector is a
    subset of that domain, represented by a flag for the no-argument
    case and a symbolic value set for the data case, which keeps the
    whole event algebra exactly complementable. *)

type t = { allow_none : bool; values : Vset.t }

let make ~allow_none values = { allow_none; values }

(* Events with no data argument, e.g. the paper's OW, CW, OR, CR, OK. *)
let none_only = { allow_none = true; values = Vset.empty }

(* Events carrying any data value, e.g. R(d) with d ∈ Data. *)
let any_value = { allow_none = false; values = Vset.full }

let value_in vs = { allow_none = false; values = vs }
let full = { allow_none = true; values = Vset.full }
let empty = { allow_none = false; values = Vset.empty }

let mem arg t =
  match arg with
  | None -> t.allow_none
  | Some v -> Vset.mem v t.values

let compl t = { allow_none = not t.allow_none; values = Vset.compl t.values }

let union a b =
  { allow_none = a.allow_none || b.allow_none;
    values = Vset.union a.values b.values }

let inter a b =
  { allow_none = a.allow_none && b.allow_none;
    values = Vset.inter a.values b.values }

let diff a b = inter a (compl b)
let is_empty t = (not t.allow_none) && Vset.is_empty t.values
let subset a b = is_empty (diff a b)
let allow_none t = t.allow_none
let values t = t.values

let sample universe_values t =
  let with_values =
    List.map (fun v -> Some v) (Vset.sample universe_values t.values)
  in
  if t.allow_none then None :: with_values else with_values

let pp ppf t =
  match (t.allow_none, Vset.is_empty t.values) with
  | true, true -> Format.pp_print_string ppf "()"
  | false, false -> Format.fprintf ppf "(%a)" Vset.pp t.values
  | true, false -> Format.fprintf ppf "()|(%a)" Vset.pp t.values
  | false, true -> Format.pp_print_string ppf "(!)"
