(* Components and object models (Sections 6-7): soundness of
   specifications against semantic models, and Lemma 13. *)

open Posl_ident
open Posl_sets
module Spec = Posl_core.Spec
module Component = Posl_core.Component
module Compose = Posl_core.Compose
module Theory = Posl_core.Theory
module Tset = Posl_tset.Tset
module Bmc = Posl_bmc.Bmc
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat

(* A concrete two-object component: a server s that accepts PING from
   anyone and forwards NOTE to a sink t after every PING. *)
let s = Oid.v "s"
let t_obj = Oid.v "t"
let m_ping = Mth.v "PING"
let m_note = Mth.v "NOTE"

let ping =
  Eventset.calls ~callers:(Oset.cofin_of_list [ s; t_obj ])
    ~callees:(Oset.singleton s) (Mset.singleton m_ping)

let note =
  Eventset.calls ~callers:(Oset.singleton s) ~callees:(Oset.singleton t_obj)
    (Mset.singleton m_note)

(* Server behaviour: strictly alternate PING then NOTE. *)
let server_behaviour =
  Tset.prs
    (Regex.star
       (Regex.seq
          (Regex.atom
             (Epat.make
                ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                ~callee:(Epat.Const s) (Mset.singleton m_ping)))
          (Regex.atom
             (Epat.make ~caller:(Epat.Const s) ~callee:(Epat.Const t_obj)
                (Mset.singleton m_note)))))

let component =
  Component.of_objects
    [
      Component.model_object ~oid:s server_behaviour;
      Component.model_object ~oid:t_obj Tset.all;
    ]

let universe =
  Universe.make
    ~objects:[ s; t_obj; Oid.v "u1"; Oid.v "u2" ]
    ~methods:[ m_ping; m_note ] ~values:[]

let ctx = Tset.ctx universe

(* A sound partial spec: looking only at PINGs, anything goes. *)
let ping_view = Spec.v ~name:"PingView" ~objs:[ s ] ~alpha:ping Tset.all

(* Another sound partial spec: s never sends two NOTEs in a row without
   a PING in between — implied by the model's alternation.  NOTE is
   internal to {s,t}, so specify the sink instead: NOTEs as seen by t. *)
let note_alpha =
  Eventset.calls ~callers:(Oset.cofin_of_list [ t_obj ])
    ~callees:(Oset.singleton t_obj) (Mset.singleton m_note)

(* An unsound spec: claims no PING ever happens. *)
let no_ping =
  Spec.v ~name:"NoPing" ~objs:[ s ] ~alpha:ping
    (Tset.pointwise "empty-only" Posl_trace.Trace.is_empty)

let test_component_alpha () =
  let alpha = Component.alpha component in
  Util.check_bool "PING visible" true
    (Eventset.mem (Util.ev "u1" "s" "PING") alpha);
  (* s->t NOTE is internal *)
  Util.check_bool "NOTE hidden" false
    (Eventset.mem (Util.ev "s" "t" "NOTE") alpha)

let test_soundness () =
  (match Component.sound ctx ~depth:5 ping_view component with
  | Bmc.Holds _ -> ()
  | Bmc.Refuted h ->
      Alcotest.failf "PingView should be sound, refuted by %a"
        Posl_trace.Trace.pp h);
  match Component.sound ctx ~depth:5 no_ping component with
  | Bmc.Refuted _ -> ()
  | Bmc.Holds _ -> Alcotest.fail "NoPing should be unsound"

let test_to_spec_refines_views () =
  (* The component's own behaviour, as a spec, refines every sound
     partial view whose alphabet it covers. *)
  let concrete = Component.to_spec ~name:"C" component in
  Util.check_bool "concrete ⊑ PingView" true
    (Posl_core.Refine.refines ~depth:5 ctx concrete ping_view)

let test_lemma13 () =
  (* Composition preserves soundness: PingView ‖ PingView2. *)
  let ping_view2 =
    Spec.v ~name:"PingView2" ~objs:[ s ] ~alpha:ping
      (Tset.prs
         (Regex.star
            (Regex.atom
               (Epat.make
                  ~caller:(Epat.In (Oset.cofin_of_list [ s; t_obj ]))
                  ~callee:(Epat.Const s) (Mset.singleton m_ping)))))
  in
  match Theory.lemma13 ctx ~depth:5 component ping_view ping_view2 with
  | o when Theory.is_pass o -> ()
  | o -> Alcotest.failf "Lemma 13: %a" Theory.pp_outcome o

let test_union_commutative () =
  let c1 = Component.of_objects [ Component.model_object ~oid:s server_behaviour ] in
  let c2 = Component.of_objects [ Component.model_object ~oid:t_obj Tset.all ] in
  let u12 = Component.union c1 c2 and u21 = Component.union c2 c1 in
  Util.check_bool "same object sets" true
    (Oid.Set.equal (Component.oid_set u12) (Component.oid_set u21));
  Util.check_bool "same alphabet" true
    (Eventset.equal (Component.alpha u12) (Component.alpha u21))

let test_duplicate_rejected () =
  Alcotest.check_raises "duplicate oid"
    (Invalid_argument "Component.of_objects: duplicate object identity")
    (fun () ->
      ignore
        (Component.of_objects
           [
             Component.model_object ~oid:s Tset.all;
             Component.model_object ~oid:s Tset.all;
           ]))

let suite =
  [
    Alcotest.test_case "component alphabet hides internals" `Quick
      test_component_alpha;
    Alcotest.test_case "soundness of views" `Quick test_soundness;
    Alcotest.test_case "concrete behaviour refines views" `Quick
      test_to_spec_refines_views;
    Alcotest.test_case "Lemma 13: composition preserves soundness" `Quick
      test_lemma13;
    Alcotest.test_case "component union commutative" `Quick
      test_union_commutative;
    Alcotest.test_case "duplicate objects rejected" `Quick
      test_duplicate_rejected;
  ]
