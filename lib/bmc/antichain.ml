(* Antichain of visited (lhs state, rhs macro-state) pairs for
   on-the-fly inclusion checking.

   The order is pointwise: (a, S) subsumes (a, T) when S ⊆ T.  Macro
   stepping of the subset-constructed rhs monitor is monotone, and a
   violation is reached exactly when the rhs macro dies while the lhs
   survives — so if exploration from (a, S) finds no violation, none
   is reachable from any (a, T) with S ⊆ T, and conversely every
   violation reachable from a pruned pair is reachable from the
   minimal pair that pruned it.  Keeping only ⊆-minimal macro-states
   per lhs state is therefore sound both for refutation and for
   reporting [Exact] on exhaustion. *)

type t = {
  tbl : (int, Bitset.t list ref) Hashtbl.t;  (* lhs id -> minimal macros *)
  mutable kept : int;  (* pairs currently in the antichain *)
  mutable pruned : int;  (* candidate pairs subsumed on arrival *)
  mutable dropped : int;  (* resident pairs evicted by a smaller arrival *)
}

type stats = { kept : int; pruned : int; dropped : int }

let create () = { tbl = Hashtbl.create 64; kept = 0; pruned = 0; dropped = 0 }

let stats (ac : t) : stats =
  { kept = ac.kept; pruned = ac.pruned; dropped = ac.dropped }

(* Admit (lhs_id, macro) unless some resident (lhs_id, S) has
   S ⊆ macro.  On admission, evict resident supersets of [macro] so
   the per-state family stays an antichain (eviction only shrinks the
   table; evicted pairs may already sit in the BFS frontier, which is
   harmless — exploring a dominated pair is redundant, not unsound). *)
let check_add ac lhs_id macro =
  match Hashtbl.find_opt ac.tbl lhs_id with
  | None ->
      Hashtbl.add ac.tbl lhs_id (ref [ macro ]);
      ac.kept <- ac.kept + 1;
      `Added
  | Some family ->
      if List.exists (fun s -> Bitset.subset s macro) !family then begin
        ac.pruned <- ac.pruned + 1;
        `Subsumed
      end
      else begin
        let survivors =
          List.filter (fun s -> not (Bitset.subset macro s)) !family
        in
        let evicted = List.length !family - List.length survivors in
        ac.dropped <- ac.dropped + evicted;
        ac.kept <- ac.kept + 1 - evicted;
        family := macro :: survivors;
        `Added
      end
