(** Finite communication traces and the paper's filtering operators.

    A trace records the life of an object or component up to a point in
    time.  Traces are finite sequences of events; the head of the list
    is the earliest event.  The operators [h/S] (restrict to a set of
    events), [h\S] (delete a set of events), [h/o] (restrict to events
    involving object [o]) and [h/m] (restrict to events with method [m])
    follow Section 2 of the paper. *)

open Posl_ident

type t = Event.t list

let empty : t = []
let of_list events : t = events
let to_list (t : t) = t
let length = List.length
let snoc (t : t) e : t = t @ [ e ]
let is_empty t = t = []

(* [h/S] for an arbitrary membership predicate. *)
let restrict ~keep (t : t) : t = List.filter keep t

(* [h\S]: delete the events satisfying [drop]. *)
let delete ~drop (t : t) : t = List.filter (fun e -> not (drop e)) t

(* [h/o]: the events of [h] involving object [o]. *)
let restrict_obj o t = restrict ~keep:(Event.involves o) t

(* [h/M]: the events of [h] calling method [M] (any caller/callee). *)
let restrict_mth m t = restrict ~keep:(Event.has_mth m) t

(* [#(h/M)] — the count notation of Example 3. *)
let count_mth m t = List.length (restrict_mth m t)

let prefixes (t : t) : t list =
  (* All prefixes, shortest first, including the empty trace and [t]. *)
  let rec loop acc rev_prefix = function
    | [] -> List.rev acc
    | e :: rest ->
        let rev_prefix = e :: rev_prefix in
        loop (List.rev rev_prefix :: acc) rev_prefix rest
  in
  loop [ empty ] [] t

let proper_prefixes t =
  match List.rev (prefixes t) with [] -> [] | _whole :: rest -> List.rev rest

let is_prefix_of (p : t) (t : t) =
  let rec loop p t =
    match (p, t) with
    | [], _ -> true
    | _, [] -> false
    | e :: p', f :: t' -> Event.equal e f && loop p' t'
  in
  loop p t

let equal (a : t) (b : t) = List.equal Event.equal a b

(* The finite set of object identities occurring in a trace; used to
   decide per-object quantified predicates such as Example 2's
   [∀x ∈ Objects : h/x prs ...] on concrete traces. *)
let objects (t : t) =
  List.fold_left
    (fun acc e -> Oid.Set.add (Event.caller e) (Oid.Set.add (Event.callee e) acc))
    Oid.Set.empty t

let pp ppf (t : t) =
  match t with
  | [] -> Format.pp_print_string ppf "ε"
  | _ ->
      Format.fprintf ppf "@[<h>%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Event.pp)
        t
