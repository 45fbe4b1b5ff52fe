(** Consistency of partial specifications (Section 7's discussion of
    Boiten et al.).

    Two specifications are {e consistent} when they have a common
    refinement.  The paper observes that in this formalism the notion
    trivialises: trace sets are prefix closed, so any two
    specifications share the refinement whose trace set is {ε} —
    "two specifications always have a common refinement, with a trace
    set including the empty trace.  In our setting, (non-trivial)
    consistency cannot be determined by external observation unless the
    specifications are composable."

    This module makes the discussion executable: the {e weakest} common
    refinement is the composition (Lemma 6 for same-object interface
    specifications, Def. 11 for composable component specifications),
    and {e non-trivial} consistency asks whether that weakest common
    refinement admits any observable behaviour beyond the empty
    trace. *)

open Posl_ident
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Bmc = Posl_bmc.Bmc
module Verdict = Posl_verdict.Verdict

(** The weakest common refinement of two specifications of overlapping
    object sets: their composition.  For interface specifications of
    the same object this is Lemma 6's least upper bound. *)
let weakest_common_refinement g1 g2 =
  if Spec.is_interface g1 && Spec.is_interface g2
     && Oid.Set.equal (Spec.objs g1) (Spec.objs g2)
  then Ok (Compose.interface g1 g2)
  else Result.map_error (fun f -> f) (Compose.compose g1 g2)

(* A shortest non-empty trace of the composition, if any. *)
let nonempty_witness ctx ~depth comp =
  let alphabet = Spec.concrete_alphabet (Tset.universe ctx) comp in
  let t = Spec.tset comp in
  let n = Tset.node ctx t in
  match Tset.start n with
  | None -> None
  | Some st0 ->
      let first =
        Array.to_list alphabet
        |> List.find_map (fun e ->
               match Tset.step n st0 e with
               | Some _ -> Some (Trace.of_list [ e ])
               | None -> None)
      in
      (match first with
      | Some h ->
          (* Witnesses are self-certifying: replay through the
             reference semantics before reporting. *)
          if Tset.mem_naive ctx t h then Some h
          else
            Verdict.uncertified
              "consistency witness %a is not a trace of the composition"
              Trace.pp h
      | None ->
          (* No single-event trace; deeper behaviour cannot exist either
             (prefix closure), but keep the exploration honest. *)
          ignore depth;
          None)

(** [verdict ?depth ctx g1 g2] decides non-trivial consistency: holds
    with a [Consistency_witness] trace, refuted when only ε is common,
    and {e vacuous} (carrying the composability failure) when the
    question is not externally answerable. *)
let verdict ?(depth = 6) ctx g1 g2 : Verdict.t =
  match weakest_common_refinement g1 g2 with
  | Error f ->
      {
        Verdict.status = Vacuous;
        confidence = None;
        evidence = [ Compose.evidence_of_failure f ];
        provenance = Verdict.no_provenance;
      }
  | Ok comp -> (
      match nonempty_witness ctx ~depth comp with
      | Some h ->
          Verdict.holds ~confidence:Exact
            ~evidence:[ Verdict.Consistency_witness h ] ()
      | None ->
          Verdict.refuted ~confidence:Exact
            [
              Verdict.Note
                "only trivially consistent: the weakest common refinement \
                 admits no non-empty trace";
            ])

(** Boolean convenience wrapper: non-trivially consistent? *)
let consistent ?depth ctx g1 g2 = Verdict.is_holds (verdict ?depth ctx g1 g2)

(** Every common refinement is below the weakest one: if ∆ refines both
    specifications, it refines their composition (Lemma 6 part 2 /
    soundness of {!verdict}'s reduction).  Exposed for tests and for
    the CLI's explanation output. *)
let common_refinement_bound ?depth ctx ~delta g1 g2 =
  match weakest_common_refinement g1 g2 with
  | Error _ -> None
  | Ok comp -> Some (Refine.verdict ?depth ctx delta comp)
