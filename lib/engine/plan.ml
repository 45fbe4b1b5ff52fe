(** The compositional proof planner: answer composite queries from
    component verdicts (Theorems 7 & 16 of the paper).

    A [Refine]/[Equal] query whose operands were built by [Compose]
    (recognised through {!Posl_core.Spec.parts}) can often be
    discharged without exploring the product state space: find the
    component the two compositions share (by content digest), check the
    applicable theorem's side conditions with the exact symbolic
    procedures, and reduce the composite question to a sub-query on the
    changed component — answered through the session's warm verdict
    cache and persistent store, so one component verdict serves every
    system containing that component.

    Soundness discipline: a derivation fires only when {e every}
    premise holds {e exactly}.  Bounded premises do not transfer across
    composition (hiding lets a short composed trace arise from an
    arbitrarily long joint trace, so a depth-k premise bounds nothing
    about the conclusion at depth k), and the theorems are
    one-directional (a refuted premise proves nothing about the
    composite).  Anything short of exact-holds premises is a
    {!Fallback} and the engine checks the composite directly. *)

module Spec = Posl_core.Spec
module Eventset = Posl_sets.Eventset
module Verdict = Posl_verdict.Verdict
module Telemetry = Posl_telemetry.Telemetry
module Oid = Posl_ident.Oid

type mode = Auto | Off

type outcome =
  | Derived of Verdict.t
  | Fallback of string
  | Not_composite

type answerer = label:string -> Job.query -> Verdict.t

type keys = {
  spec_key : Spec.t -> string option;
  query_key : Job.query -> Digest.t option;
}

(* Premise provenance uses the depth-independent content address — the
   persistent store's key — so replaying a premise means re-answering
   the same record the derivation consumed.  Opaque sub-specifications
   have no content address; naming the query keeps the provenance
   readable (such premises can still be re-answered, just not by
   digest). *)
let premise_digest keys q =
  match keys.query_key q with
  | Some d -> d
  | None -> "opaque:" ^ Job.describe q

(* Shared-part recognition: two component values denote the same
   specification when their canonical serializations agree (name,
   objects, alphabet, trace-set structure — see [Digest.spec_key]).
   A key begins with the name, so differently named parts are told
   apart before either is serialized.  Opaque trace sets admit no
   content address, hence no sharing claim. *)
let content_equal keys a b =
  String.equal (Spec.name a) (Spec.name b)
  &&
  match (keys.spec_key a, keys.spec_key b) with
  | Some ka, Some kb -> String.equal ka kb
  | (None | Some _), _ -> false

let exact_holds (v : Verdict.t) =
  Verdict.is_holds v && v.Verdict.confidence = Some Verdict.Exact

(* For Γ′‖∆′ vs Γ‖∆ (either side may also be written ∆‖Γ — composition
   is commutative), the four ways of pairing a changed component with
   an abstract one while the remaining parts are shared. *)
let arrangements (lg, ld) (rg, rd) =
  [ (lg, rg, ld, rd); (lg, rd, ld, rg); (ld, rg, lg, rd); (ld, rd, lg, rg) ]

let shared_arrangements keys lparts rparts =
  List.filter_map
    (fun (c', c, d', d) ->
      if content_equal keys d' d then Some (c', c, d') else None)
    (arrangements lparts rparts)

let derived_verdict keys ~rule premise_queries =
  Verdict.holds ~confidence:Verdict.Exact
    ~provenance:
      (Verdict.provenance
         ~procedure:
           (Verdict.Derived
              {
                rule;
                premises =
                  List.map (premise_digest keys) premise_queries;
              })
         ())
    ()

(* Answer the premises in order through the session (cheap symbolic
   side conditions first); stop at the first one that is not an exact
   hold.  Returns the full query list on success, for provenance. *)
let establish ~(answer : answerer) queries =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (label, q) :: rest ->
        let v =
          Telemetry.with_span "plan.premise"
            ~attrs:[ ("premise", label); ("kind", Job.kind q) ]
            (fun () -> answer ~label q)
        in
        if exact_holds v then go (q :: acc) rest else None
  in
  go [] queries

(* Refine(Γ′‖∆, Γ‖∆): Theorem 7 when all three are interface
   specifications and the refinement keeps the object set (exactly the
   conditions [Theory.theorem7] checks), Theorem 16 otherwise — with
   composability (Def. 10) and properness (Def. 14) as cached
   sub-queries, so the side conditions themselves land in the verdict
   cache and store.  Theorem 18's no-new-objects case is subsumed:
   its α₀ is empty, so the properness premise holds trivially. *)
let derive_refine ~answer keys lparts rparts =
  Telemetry.with_span "plan.decompose" ~attrs:[ ("kind", "refine") ]
  @@ fun () ->
  match shared_arrangements keys lparts rparts with
  | [] -> Fallback "the compositions share no component (by content)"
  | viable ->
      let try_one (c', c, delta) =
        let interface_case =
          Spec.is_interface c' && Spec.is_interface c
          && Spec.is_interface delta
          && Oid.Set.equal (Spec.objs c') (Spec.objs c)
        in
        let rule = if interface_case then "theorem7" else "theorem16" in
        let side_conditions =
          if interface_case then []
          else
            [
              ("composable", Job.compose ~left:c' ~right:delta);
              ("proper", Job.proper ~refined:c' ~abstract:c ~context:delta);
            ]
        in
        let queries =
          side_conditions @ [ ("refines", Job.refine ~refined:c' ~abstract:c) ]
        in
        match establish ~answer queries with
        | Some premises -> Some (derived_verdict keys ~rule premises)
        | None -> None
      in
      (match List.find_map try_one viable with
      | Some v -> Derived v
      | None ->
          Fallback "a side condition failed or a premise was not exact")

(* Equal(Γ‖∆, Γ″‖∆): congruence of composition — the composed trace
   set is a function of the parts' (alphabet, trace set) pairs and the
   composed alphabet, so sharing ∆ and establishing
   O(Γ) = O(Γ″), α(Γ) = α(Γ″) (symbolic) and T(Γ) = T(Γ″) (exact
   sub-query) pins the two composites to the same trace set.  A
   content-equal changed pair (e.g. Γ‖∆ vs ∆‖Γ, commutativity) needs
   no sub-query at all. *)
let derive_equal ~answer keys lparts rparts =
  Telemetry.with_span "plan.decompose" ~attrs:[ ("kind", "equal") ]
  @@ fun () ->
  match shared_arrangements keys lparts rparts with
  | [] -> Fallback "the compositions share no component (by content)"
  | viable ->
      let try_one (c', c, _delta) =
        if not (Oid.Set.equal (Spec.objs c') (Spec.objs c)) then None
        else if not (Eventset.equal (Spec.alpha c') (Spec.alpha c)) then None
        else if content_equal keys c' c then
          Some (derived_verdict keys ~rule:"equal-congruence" [])
        else
          match
            establish ~answer [ ("equal", Job.equal ~left:c' ~right:c) ]
          with
          | Some premises ->
              Some (derived_verdict keys ~rule:"equal-congruence" premises)
          | None -> None
      in
      (match List.find_map try_one viable with
      | Some v -> Derived v
      | None ->
          Fallback "a side condition failed or a premise was not exact")

let derive ~answer ~keys query =
  match query with
  | Job.Refine { refined; abstract } -> (
      match (Spec.parts refined, Spec.parts abstract) with
      | None, None -> Not_composite
      | Some _, None | None, Some _ ->
          Fallback "only one operand is a composition: no rule applies"
      | Some lparts, Some rparts ->
          derive_refine ~answer keys lparts rparts)
  | Job.Equal { left; right } -> (
      match (Spec.parts left, Spec.parts right) with
      | None, None -> Not_composite
      | Some _, None | None, Some _ ->
          Fallback "only one operand is a composition: no rule applies"
      | Some lparts, Some rparts ->
          derive_equal ~answer keys lparts rparts)
  | Job.Compose _ | Job.Proper _ | Job.Deadlock _ -> Not_composite
