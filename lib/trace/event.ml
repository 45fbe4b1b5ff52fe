(** Communication events.

    An observable communication event is the triple ⟨o₂, o₁, m⟩ of the
    paper — [caller] o₂ invokes method [m] of [callee] o₁ — optionally
    carrying one data parameter, as in [⟨x, o, W(d)⟩].  Internal
    self-calls are not observable, so a well-formed event always has
    [caller ≠ callee]; the constructor enforces this invariant and every
    later symbolic decision procedure relies on it (sets of events are
    interpreted inside the diagonal-free universe). *)

open Posl_ident

type t = {
  caller : Oid.t;
  callee : Oid.t;
  mth : Mth.t;
  arg : Value.t option;
}

let make ?arg ~caller ~callee mth =
  if Oid.equal caller callee then
    invalid_arg "Event.make: caller and callee must differ";
  { caller; callee; mth; arg }

let caller t = t.caller
let callee t = t.callee
let mth t = t.mth
let arg t = t.arg
let involves o t = Oid.equal t.caller o || Oid.equal t.callee o
let has_mth m t = Mth.equal t.mth m

let compare a b =
  let c = Oid.compare a.caller b.caller in
  if c <> 0 then c
  else
    let c = Oid.compare a.callee b.callee in
    if c <> 0 then c
    else
      let c = Mth.compare a.mth b.mth in
      if c <> 0 then c else Option.compare Value.compare a.arg b.arg

let equal a b = compare a b = 0

let pp ppf t =
  match t.arg with
  | None -> Format.fprintf ppf "<%a,%a,%a>" Oid.pp t.caller Oid.pp t.callee Mth.pp t.mth
  | Some d ->
      Format.fprintf ppf "<%a,%a,%a(%a)>" Oid.pp t.caller Oid.pp t.callee
        Mth.pp t.mth Value.pp d

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
