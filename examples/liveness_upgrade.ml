(* Liveness-aware component upgrade (the extension of Section 9).

   The paper closes by observing that its refinement relation preserves
   safety but not liveness: Example 5 upgrades a client into one that
   deadlocks against the access controller, and the deadlocked system
   still (trivially) refines the live one.  This walkthrough uses the
   posl.live extension to catch exactly that:

   1. attach a progress obligation to the client's protocol;
   2. show plain refinement accepts the broken upgrade while live
      refinement rejects it, with a witness;
   3. run the compositional deadlock-preservation analysis on both the
      broken upgrade (Client → Client2) and a harmless one
      (WriteAcc → RW2).

   Run with: dune exec examples/liveness_upgrade.exe *)

open Posl_sets
module Live = Posl_live.Live
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Ex = Posl_core.Examples_paper

let () =
  Format.printf "== liveness-aware upgrade checking (Sec. 9 extension) ==@.@.";
  let universe = Spec.adequate_universe Ex.all_specs in
  let ctx = Tset.ctx universe in
  let depth = 6 in

  (* The obligation: an OW that has been issued must stay answerable by
     a CW — the handshake the access controller expects. *)
  let ow_answerable =
    Live.obligation ~name:"ow-answerable"
      ~trigger:
        (Eventset.calls ~callers:Oset.full ~callees:Oset.full
           (Mset.singleton Ex.m_ow))
      ~response:
        (Eventset.calls ~callers:Oset.full ~callees:Oset.full
           (Mset.singleton Ex.m_cw))
  in
  Format.printf "obligation: %s: every open OW answerable by a CW@.@."
    ow_answerable.Live.name;

  (* Plain (safety) refinement happily accepts the broken upgrade. *)
  Format.printf "Client2 ⊑ Client (safety, Def. 2)?   %a@." Posl_verdict.Verdict.pp
    (Refine.verdict ~depth ctx Ex.client2 Ex.client);

  (* Live refinement rejects it: Client2 issues OW but can never answer
     it (it has no CW at all). *)
  let abstract = Live.v ~deadlock_free:false Ex.client in
  let refined =
    Live.v ~deadlock_free:false ~obligations:[ ow_answerable ] Ex.client2
  in
  (let v = Live.refine ~depth ctx refined abstract in
   if Posl_verdict.Verdict.is_holds v then
     Format.printf "Client2 ⊑live Client?               accepted %a (unexpected!)@."
       Posl_verdict.Verdict.pp v
   else
     Format.printf "Client2 ⊑live Client?               rejected: %a@."
       Posl_verdict.Verdict.pp v);
  Format.printf "@.";

  (* The compositional analysis, on both upgrades of the paper. *)
  let report name result =
    match result with
    | Ok () -> Format.printf "%-28s preserves liveness of the composition@." name
    | Error h ->
        Format.printf "%-28s introduces a deadlock (after %a)@." name Trace.pp h
  in
  report "Client → Client2 (‖WriteAcc):"
    (Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.client2
       ~gamma:Ex.client ~delta:Ex.write_acc);
  report "WriteAcc → RW2 (‖Client):"
    (Live.compositional_deadlock_preservation ctx ~depth ~gamma':Ex.rw2
       ~gamma:Ex.write_acc ~delta:Ex.client);
  Format.printf
    "@.(the first is Example 5's phenomenon, now caught mechanically;@.\
    \ the second is Example 6's harmless harmonisation)@."
