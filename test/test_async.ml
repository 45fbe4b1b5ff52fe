(* The asynchronous call/return discipline (footnote 1 of the paper). *)

open Posl_ident
open Posl_sets
module Async = Posl_async.Async
module Spec = Posl_core.Spec
module Refine = Posl_core.Refine
module Tset = Posl_tset.Tset
module Trace = Posl_trace.Trace
module Event = Posl_trace.Event

let o = Oid.v "o"
let c = Oid.v "c"
let m_r = Mth.v "R"
let env = Oset.cofin_of_list [ o ]

(* The asynchronous Read: requests R? answered by R!(d). *)
let async_read =
  Async.interface_spec ~name:"AsyncRead" ~obj:o ~callers:env [ m_r ]

(* The synchronous (one outstanding request) variant. *)
let sync_read =
  Async.interface_spec ~window:1 ~name:"SyncRead" ~obj:o ~callers:env [ m_r ]

let universe = Spec.adequate_universe [ async_read; sync_read ]
let ctx = Tset.ctx universe

let req x = Event.make ~caller:(Oid.v x) ~callee:o (Async.request_mth m_r)

let rep ?arg x =
  Event.make ?arg ~caller:o ~callee:(Oid.v x) (Async.reply_mth m_r)

let d1 = Value.v "d1"

let test_protocol_accepts_pipelining () =
  let mem h = Spec.mem ctx async_read (Trace.of_list h) in
  Util.check_bool "request alone" true (mem [ req "c" ]);
  Util.check_bool "request-reply" true (mem [ req "c"; rep ~arg:d1 "c" ]);
  Util.check_bool "two outstanding requests" true (mem [ req "c"; req "c" ]);
  Util.check_bool "reply without request rejected" false
    (mem [ rep ~arg:d1 "c" ]);
  (* per caller: c's pending request cannot be answered to obj1 *)
  Util.check_bool "cross-caller reply rejected" false
    (mem [ req "c"; rep ~arg:d1 "obj1" ])

let test_sync_window () =
  let mem h = Spec.mem ctx sync_read (Trace.of_list h) in
  Util.check_bool "one outstanding fine" true (mem [ req "c" ]);
  Util.check_bool "second outstanding rejected" false (mem [ req "c"; req "c" ]);
  Util.check_bool "sequential calls fine" true
    (mem [ req "c"; rep ~arg:d1 "c"; req "c" ]);
  (* two different callers may each have one outstanding request *)
  Util.check_bool "two callers, one each" true (mem [ req "c"; req "obj1" ])

let test_sync_refines_async () =
  (* The synchronous discipline restricts the asynchronous one: same
     alphabet, stronger trace set. *)
  let v =
    Refine.verdict ~depth:5 ctx sync_read async_read
  in
  if not (Posl_verdict.Verdict.is_holds v) then
    Alcotest.failf "SyncRead ⊑ AsyncRead: %s" (Posl_verdict.Verdict.to_string v)

let test_split_collapse_roundtrip () =
  let call x =
    Event.make ~arg:d1 ~caller:(Oid.v x) ~callee:o m_r
  in
  let h = Trace.of_list [ call "c"; call "obj1" ] in
  let split = Async.split_trace h in
  Util.check_int "two events per call" 4 (Trace.length split);
  Util.check_bool "collapse inverts split" true
    (Trace.equal h (Async.collapse_trace split));
  (* the split trace satisfies the synchronous protocol *)
  Util.check_bool "split trace well-formed" true (Spec.mem ctx sync_read split)

let test_only_reply_carries_data () =
  (* The footnote's point: the request has no argument, the reply does. *)
  let split = Async.split_event (Event.make ~arg:d1 ~caller:c ~callee:o m_r) in
  match split with
  | [ request; reply ] ->
      Util.check_bool "request has no data" true (Event.arg request = None);
      Util.check_bool "reply carries the value" true (Event.arg reply = Some d1);
      Util.check_bool "reply goes back to the caller" true
        (Oid.equal (Event.callee reply) c)
  | _ -> Alcotest.fail "expected exactly two events"

let suite =
  [
    Alcotest.test_case "async protocol (pipelining allowed)" `Quick
      test_protocol_accepts_pipelining;
    Alcotest.test_case "synchronous window" `Quick test_sync_window;
    Alcotest.test_case "sync refines async" `Quick test_sync_refines_async;
    Alcotest.test_case "split/collapse round trip" `Quick
      test_split_collapse_roundtrip;
    Alcotest.test_case "only the reply carries data (footnote 1)" `Quick
      test_only_reply_carries_data;
  ]
