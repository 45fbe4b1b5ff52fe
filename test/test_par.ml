(* The worker pool: map_dyn's equivalence with the sequential map,
   exception propagation and degradation cases, and the pool's own
   drain and all-or-nothing admission. *)

module Par = Posl_par.Par
module G = QCheck2.Gen

let test_small_input_sequential () =
  (* Inputs shorter than 2×domains run sequentially. *)
  Alcotest.(check (list int))
    "tiny" [ 2; 4 ]
    (Par.map_dyn ~domains:4 (fun x -> 2 * x) [ 1; 2 ])

(* Boundary cases of the pool: the smallest inputs that run in
   parallel, the default domain count, degenerate domain counts, and
   exceptions carrying a payload. *)

exception Boom of int

let test_order_preserved () =
  (* [n = 2 * domains] is the shortest input that is not mapped
     sequentially. *)
  for domains = 2 to 6 do
    let xs = List.init (2 * domains) Fun.id in
    Alcotest.(check (list int))
      (Printf.sprintf "threshold, %d domains" domains)
      (List.map succ xs)
      (Par.map_dyn ~domains succ xs)
  done;
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "default domains" (List.map succ xs) (Par.map_dyn succ xs)

let test_exception_propagates () =
  (* Several workers fail: one of their exceptions reaches the caller
     unchanged, payload included, and the pool is usable afterwards. *)
  let xs = List.init 100 Fun.id in
  (match
     Par.map_dyn ~domains:4 (fun x -> if x >= 90 then raise (Boom x) else x) xs
   with
  | exception Boom k ->
      Util.check_bool "payload is a failing item" true (k >= 90 && k < 100)
  | _ -> Alcotest.fail "expected a worker exception to propagate");
  Alcotest.(check (list int))
    "pool usable after a failure" (List.map succ xs)
    (Par.map_dyn ~domains:4 succ xs)

let test_empty () =
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "empty, %d domains" domains)
        [] (Par.map_dyn ~domains succ []))
    [ -1; 0; 1 ];
  Alcotest.(check (list int)) "empty, default domains" [] (Par.map_dyn succ [])

(* map_dyn: the dynamic work queue must be observationally identical to
   the sequential map. *)

let test_dyn_order_preserved () =
  let xs = List.init 1000 Fun.id in
  Alcotest.(check (list int))
    "order" (List.map succ xs)
    (Par.map_dyn ~domains:4 succ xs)

let test_dyn_exception_propagates () =
  let xs = List.init 100 Fun.id in
  match
    Par.map_dyn ~domains:4 (fun x -> if x = 63 then failwith "boom" else x) xs
  with
  | exception Failure m -> Alcotest.(check string) "message" "boom" m
  | _ -> Alcotest.fail "expected the worker failure to propagate"

let test_dyn_uneven_load () =
  (* A few heavy items at the front must not serialize the rest: the
     dynamic queue hands them to separate domains.  Checked for results
     only (timing is not asserted). *)
  let work x =
    if x < 2 then (
      let acc = ref 0 in
      for i = 0 to 200_000 do acc := !acc + (i mod 7) done;
      x + (!acc * 0))
    else x
  in
  let xs = List.init 64 Fun.id in
  Alcotest.(check (list int)) "uneven" xs (Par.map_dyn ~domains:4 work xs)

let test_dyn_empty () =
  Alcotest.(check (list int)) "empty" [] (Par.map_dyn ~domains:4 succ [])

let test_dyn_earliest_failure_wins () =
  (* Item 0 fails slowly, item 1 at once: the exception re-raised is
     item 0's, because an item that started before the first failure
     runs to its end. *)
  let f x =
    if x = 0 then (Unix.sleepf 0.1; raise (Boom 0))
    else if x = 1 then raise (Boom 1)
    else x
  in
  for _ = 1 to 3 do
    match Par.map_dyn ~domains:2 f [ 0; 1; 2; 3 ] with
    | exception Boom k -> Util.check_int "earliest failing item" 0 k
    | _ -> Alcotest.fail "expected a worker exception to propagate"
  done

(* The pool itself: what the verification service queues on. *)

let test_pool_runs_and_drains () =
  let hits = Atomic.make 0 in
  let q =
    Par.pool ~workers:2 ~max_queue:64 (fun n ->
        ignore (Atomic.fetch_and_add hits n))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) "accepted" true (Par.submit_all q [ n ] = Par.Accepted))
    [ 1; 2; 3; 4; 5 ];
  Par.drain q;
  Util.check_int "all items ran" 15 (Atomic.get hits);
  Alcotest.(check bool) "stopped after drain" true
    (Par.submit_all q [ 6 ] = Par.Stopped)

let test_pool_overload_is_atomic () =
  (* no workers: whatever is admitted stays queued, so capacity
     accounting is exact *)
  let q = Par.pool ~workers:0 ~max_queue:3 (fun _ -> ()) in
  Alcotest.(check bool) "batch fits" true
    (Par.submit_all q [ 1; 2 ] = Par.Accepted);
  Alcotest.(check bool) "overflowing batch refused whole" true
    (Par.submit_all q [ 3; 4 ] = Par.Overloaded);
  Util.check_int "refused batch left no residue" 2 (Par.depth q);
  Alcotest.(check bool) "exact fit accepted" true
    (Par.submit_all q [ 3 ] = Par.Accepted);
  Par.drain q

let qsuite =
  [
    Util.qtest ~count:50 "map agrees with List.map"
      (G.pair (G.int_range (-1) 8) (G.list_size (G.int_bound 200) G.int))
      (fun (domains, xs) ->
        (* boxed results, domain counts including the degenerate ones *)
        Par.map_dyn ~domains string_of_int xs = List.map string_of_int xs);
    Util.qtest ~count:50 "map_dyn agrees with List.map"
      (G.pair (G.int_range 1 6) (G.list_size (G.int_bound 200) G.int))
      (fun (domains, xs) ->
        Par.map_dyn ~domains (fun x -> (3 * x) + 1) xs
        = List.map (fun x -> (3 * x) + 1) xs);
  ]

let suite =
  [
    Alcotest.test_case "small inputs run sequentially" `Quick
      test_small_input_sequential;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "worker exceptions propagate" `Quick
      test_exception_propagates;
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "map_dyn: order preserved" `Quick
      test_dyn_order_preserved;
    Alcotest.test_case "map_dyn: worker exceptions propagate" `Quick
      test_dyn_exception_propagates;
    Alcotest.test_case "map_dyn: uneven load" `Quick test_dyn_uneven_load;
    Alcotest.test_case "map_dyn: empty input" `Quick test_dyn_empty;
    Alcotest.test_case "map_dyn: the earliest failing item's exception"
      `Quick test_dyn_earliest_failure_wins;
    Alcotest.test_case "pool runs and drains" `Quick test_pool_runs_and_drains;
    Alcotest.test_case "pool admission is all-or-nothing" `Quick
      test_pool_overload_is_atomic;
  ]
  @ qsuite
