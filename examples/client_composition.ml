(* Examples 4, 5 and 6 of the paper: composition, projection, and
   deadlock.

   - Example 4: Client ‖ WriteAcc.  The client is specified at a more
     abstract level than the access controller (it ignores OW/CW).
     With the paper's projection-based composition, the observable
     behaviour is exactly ⟨c,o',OK⟩* — no deadlock.  Without projection
     (the semantics the paper argues against) the composition deadlocks
     immediately.

   - Example 5: Client2 refines Client but emits OW *after* its writes,
     opposite to WriteAcc's order.  The refinement step introduces a
     deadlock: T(Client2‖WriteAcc) = {ε}.

   - Example 6: RW2 refines WriteAcc; the methods RW2 adds are internal
     to the composition with Client, so T(RW2‖Client) =
     T(WriteAcc‖Client) — refinement of one constituent harmonised the
     abstraction levels without changing observable behaviour.

   Run with: dune exec examples/client_composition.exe *)

module Ex = Posl_core.Examples_paper
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Trace = Posl_trace.Trace

let () =
  Format.printf "== client/controller composition (Examples 4-6) ==@.@.";
  let universe = Spec.adequate_universe Ex.all_specs in
  let ctx = Tset.ctx universe in
  let depth = 8 in

  (* Example 4 — observable behaviour of Client ‖ WriteAcc. *)
  let comp = Compose.interface Ex.client Ex.write_acc in
  Format.printf "α(%s) = %a@." (Spec.name comp) Posl_sets.Eventset.pp
    (Spec.alpha comp);
  let alphabet = Spec.concrete_alphabet universe comp in
  let traces = Bmc.enumerate ctx ~alphabet ~depth:3 (Spec.tset comp) in
  Format.printf "observable traces up to length 3:@.";
  List.iter (fun h -> Format.printf "  %a@." Trace.pp h) traces;
  (match Bmc.find_deadlock ctx ~alphabet ~depth (Spec.tset comp) with
  | None -> Format.printf "no deadlock up to depth %d (as the paper claims)@." depth
  | Some h -> Format.printf "deadlock after %a@." Trace.pp h);
  Format.printf "@.";

  (* The ablation: composing *without* projection deadlocks at once,
     because OW is not in the client's alphabet. *)
  let noproj = Compose.interface_noproj Ex.client Ex.write_acc in
  let alphabet_np = Spec.concrete_alphabet universe noproj in
  (match Bmc.find_deadlock ctx ~alphabet:alphabet_np ~depth (Spec.tset noproj) with
  | Some h when Trace.is_empty h ->
      Format.printf
        "without projection: immediate deadlock (T = {ε}), as the paper warns@."
  | Some h -> Format.printf "without projection: deadlock after %a@." Trace.pp h
  | None -> Format.printf "without projection: no deadlock (unexpected!)@.");
  Format.printf "@.";

  (* Example 5 — deadlock introduced by a refinement step. *)
  Format.printf "Client2 ⊑ Client?  %a@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx Ex.client2 Ex.client);
  let comp2 = Compose.interface Ex.client2 Ex.write_acc in
  let alphabet2 = Spec.concrete_alphabet universe comp2 in
  (match Bmc.find_deadlock ctx ~alphabet:alphabet2 ~depth (Spec.tset comp2) with
  | Some h when Trace.is_empty h ->
      Format.printf
        "Client2 ‖ WriteAcc deadlocks immediately: T = {ε} (Example 5)@."
  | Some h -> Format.printf "Client2 ‖ WriteAcc deadlocks after %a@." Trace.pp h
  | None -> Format.printf "no deadlock (unexpected!)@.");
  (* ... and the deadlocked composition still (trivially) refines the
     original composition, which is exactly the paper's point: this
     refinement relation does not preserve liveness. *)
  Format.printf "Client2‖WriteAcc ⊑ Client‖WriteAcc?  %a@.@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx comp2 comp);

  (* Example 6 — RW2 harmonises abstraction levels. *)
  Format.printf "RW2 ⊑ RW?        %a@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx Ex.rw2 Ex.rw);
  Format.printf "RW2 ⊑ WriteAcc?  %a@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx Ex.rw2 Ex.write_acc);
  let comp_rw2 = Compose.interface Ex.rw2 Ex.client in
  let comp_wa = Compose.interface Ex.write_acc Ex.client in
  (* The paper equates the *trace sets*; the alphabets legitimately
     differ (the refined constituent's extra events never occur). *)
  Format.printf "T(RW2‖Client) = T(WriteAcc‖Client)?  %a@." Theory.pp_outcome
    (Theory.tset_equal ctx ~depth comp_rw2 comp_wa)
