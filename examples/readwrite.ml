(* Examples 2 and 3 of the paper: merging viewpoints by refinement.

   RW merges the Write and Read2 viewpoints of the access controller:
   multiple inheritance of behaviour through a common refinement.  The
   paper's claims:
   - RW refines Read and Write (Example 3);
   - RW does NOT refine Read2, because reads may occur while the caller
     holds write access;
   - Write ‖ Read2 is the weakest common refinement of the two
     viewpoints (Lemma 6), and RW refines it.

   Run with: dune exec examples/readwrite.exe *)

module Ex = Posl_core.Examples_paper
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset

let () =
  Format.printf "== merging read/write viewpoints (Examples 2-3) ==@.@.";
  let universe = Spec.adequate_universe Ex.all_specs in
  let ctx = Tset.ctx universe in
  let depth = 6 in
  let check g' g =
    Format.printf "%-8s ⊑ %-8s?  %a@." (Spec.name g') (Spec.name g)
      Posl_verdict.Verdict.pp
      (Refine.verdict ~depth ctx g' g)
  in
  check Ex.read2 Ex.read;
  check Ex.rw Ex.read;
  check Ex.rw Ex.write;
  check Ex.rw Ex.read2;
  Format.printf "@.";

  (* Lemma 6: the composition of two viewpoints of the same object is
     their weakest common refinement. *)
  let merged = Compose.interface Ex.write Ex.read2 in
  Format.printf "Lemma 6 (upper bounds) on Write, Read2: %a@."
    Theory.pp_outcome
    (Theory.lemma6_refines ctx ~depth Ex.write Ex.read2);

  (* RW is *a* common refinement of Read and Write... *)
  Format.printf "Lemma 6 (weakest) with ∆ = RW over Read, Write: %a@."
    Theory.pp_outcome
    (Theory.lemma6_weakest ctx ~depth ~delta:Ex.rw Ex.read Ex.write);

  (* ... but not of Write and Read2 (it allows reads under write
     access), so against Write‖Read2 the check reports the premise
     failure rather than a refinement. *)
  Format.printf "Lemma 6 (weakest) with ∆ = RW over Write, Read2: %a@."
    Theory.pp_outcome
    (Theory.lemma6_weakest ctx ~depth ~delta:Ex.rw Ex.write Ex.read2);
  Format.printf "@.";

  (* Property 5: composing a specification with itself is the identity;
     object identity is what distinguishes this calculus from process
     algebra. *)
  List.iter
    (fun g ->
      Format.printf "Property 5 (Γ‖Γ = Γ) for %-8s %a@." (Spec.name g)
        Theory.pp_outcome
        (Theory.property5 ctx ~depth g))
    [ Ex.read; Ex.write; Ex.read2; Ex.rw ];
  Format.printf "@.%a@." Spec.pp merged
