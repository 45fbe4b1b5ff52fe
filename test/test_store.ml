(* The persistent verdict store (posl.store): reopen round-trips,
   crash-safety under injected corruption (torn tail + flipped CRC
   byte), the depth rule for bounded verdicts, engine wiring (a second
   run of the same batch against a warm store recomputes nothing), gc
   compaction, and two handles appending to one store. *)

module Store = Posl_store.Store
module Crc32 = Posl_store.Crc32
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Cache = Posl_engine.Cache
module Ex = Posl_core.Examples_paper
module V = Posl_verdict.Verdict

let u = Util.paper_universe
let depth = 4

let req ?depth:(d = depth) q = Engine.request ~depth:d ~universe:u q

let paper_batch () =
  [
    req (Job.Refine { refined = Ex.read2; abstract = Ex.read });
    req (Job.Refine { refined = Ex.read; abstract = Ex.read2 });
    req (Job.Refine { refined = Ex.write_acc; abstract = Ex.write });
    req (Job.Compose { left = Ex.client; right = Ex.write_acc });
    req (Job.Compose { left = Ex.read; right = Ex.write });
    req
      (Job.Proper
         { refined = Ex.rw2; abstract = Ex.write_acc; context = Ex.client });
    req (Job.Deadlock { left = Ex.client; right = Ex.write_acc });
    req (Job.Equal { left = Ex.read; right = Ex.read });
    req (Job.Equal { left = Ex.write; right = Ex.write_acc });
  ]

let verdicts_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Engine.result) (y : Engine.result) ->
         V.equal x.Engine.verdict y.Engine.verdict)
       a b

(* Fresh scratch directories under the system temp dir; the store
   creates them itself. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "posl-store-test-%d-%d" (Unix.getpid ()) !n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Synthetic verdicts with controlled confidence. *)
let exact_v = V.holds ~confidence:V.Exact ()
let bounded_v k = V.holds ~confidence:(V.Bounded k) ()

(* --- basic persistence --------------------------------------------- *)

let test_reopen_round_trip () =
  let dir = fresh_dir () in
  let refuted =
    Job.run Util.paper_ctx ~depth (Job.refine ~refined:Ex.rw ~abstract:Ex.read2)
  in
  let s = Store.open_ dir in
  Util.check_bool "add a" true (Store.add s ~digest:"aaaa" ~depth exact_v);
  Util.check_bool "add b" true (Store.add s ~digest:"bbbb" ~depth refuted);
  Util.check_bool "duplicate add is a no-op" false
    (Store.add s ~digest:"aaaa" ~depth exact_v);
  Store.close s;
  let s = Store.open_ dir in
  (match Store.find s ~digest:"bbbb" ~depth with
  | None -> Alcotest.fail "bbbb should be found after reopen"
  | Some v ->
      Util.check_bool "reopened verdict ≡ original (typed evidence)" true
        (V.equal v refuted));
  (match Store.find s ~digest:"aaaa" ~depth:99 with
  | None -> Alcotest.fail "exact verdicts answer any depth"
  | Some v -> Util.check_bool "exact round-trips" true (V.equal v exact_v));
  Util.check_bool "absent digest misses" true
    (Store.find s ~digest:"cccc" ~depth = None);
  let st = Store.stats s in
  Util.check_int "entries" 2 st.Store.entries;
  Util.check_int "records" 2 st.Store.records;
  Util.check_int "no damage" 0 st.Store.damaged;
  Store.close s

let test_depth_rule () =
  let dir = fresh_dir () in
  let s = Store.open_ dir in
  ignore (Store.add s ~digest:"dddd" ~depth:5 (bounded_v 5));
  Util.check_bool "bounded@5 answers depth 3" true
    (Store.find s ~digest:"dddd" ~depth:3 <> None);
  Util.check_bool "bounded@5 answers depth 5" true
    (Store.find s ~digest:"dddd" ~depth:5 <> None);
  Util.check_bool "bounded@5 does not answer depth 6" true
    (Store.find s ~digest:"dddd" ~depth:6 = None);
  (* A deeper record supersedes; an exact one subsumes everything. *)
  Util.check_bool "deeper record is written" true
    (Store.add s ~digest:"dddd" ~depth:8 (bounded_v 8));
  Util.check_bool "now answers depth 6" true
    (Store.find s ~digest:"dddd" ~depth:6 <> None);
  Util.check_bool "shallower record is refused" false
    (Store.add s ~digest:"dddd" ~depth:2 (bounded_v 2));
  Util.check_bool "exact record is written" true
    (Store.add s ~digest:"dddd" ~depth:1 exact_v);
  Util.check_bool "exact answers any depth" true
    (Store.find s ~digest:"dddd" ~depth:50 <> None);
  Store.close s;
  (* The strongest record wins the index on reopen too. *)
  let s = Store.open_ dir in
  Util.check_bool "after reopen, exact still answers depth 50" true
    (Store.find s ~digest:"dddd" ~depth:50 <> None);
  Util.check_int "one digest, three records" 1 (Store.stats s).Store.entries;
  Util.check_int "records" 3 (Store.stats s).Store.records;
  Store.close s

(* --- crash safety --------------------------------------------------- *)

let test_corruption_recovery () =
  let dir = fresh_dir () in
  let s = Store.open_ dir in
  for i = 1 to 5 do
    ignore (Store.add s ~digest:(Printf.sprintf "d%04d" i) ~depth exact_v)
  done;
  Store.close s;
  let log = Store.log_path dir in
  let intact = read_file log in
  (* Record offsets: scan the frame lengths ourselves. *)
  let record_offsets =
    let rec go pos acc =
      if pos >= String.length intact then List.rev acc
      else
        let plen = Int32.to_int (String.get_int32_be intact pos) in
        go (pos + 8 + plen) (pos :: acc)
    in
    go (String.length "posl-store v1\n") []
  in
  Util.check_int "five records on disk" 5 (List.length record_offsets);
  (* Flip one CRC byte of record 3, and tear the tail mid-record 5. *)
  let r3 = List.nth record_offsets 2 and r5 = List.nth record_offsets 4 in
  let b = Bytes.of_string intact in
  Bytes.set b (r3 + 4) (Char.chr (Char.code (Bytes.get b (r3 + 4)) lxor 0xFF));
  let torn = Bytes.sub b 0 (r5 + 11) in
  write_file log (Bytes.to_string torn);
  (* verify (read-only) reports exactly the flipped record + the torn
     tail, and repairs nothing. *)
  (match Store.verify dir with
  | Error e -> Alcotest.failf "verify should scan: %s" e
  | Ok r ->
      Util.check_int "intact records" 3 r.Store.intact;
      Util.check_int "exactly one damaged record" 1
        (List.length r.Store.violations);
      (match r.Store.violations with
      | [ d ] ->
          Util.check_int "damage at record 3's offset" r3 d.Store.offset;
          Util.check_bool "reason is the CRC" true
            (Util.contains_substring ~needle:"crc" d.Store.reason)
      | _ -> Alcotest.fail "expected exactly one violation");
      Util.check_int "torn tail bytes" 11 r.Store.torn_bytes);
  (* Reopening recovers: the torn tail is truncated, the flipped record
     is skipped and reported, every intact record survives. *)
  let s = Store.open_ dir in
  let st = Store.stats s in
  Util.check_int "intact records survive" 3 st.Store.records;
  Util.check_int "damaged" 1 st.Store.damaged;
  Util.check_int "truncated the torn tail" 11 st.Store.truncated_bytes;
  List.iter
    (fun i ->
      Util.check_bool
        (Printf.sprintf "d%04d readable" i)
        true
        (Store.find s ~digest:(Printf.sprintf "d%04d" i) ~depth <> None))
    [ 1; 2; 4 ];
  Util.check_bool "flipped record rejected" true
    (Store.find s ~digest:"d0003" ~depth = None);
  Util.check_bool "torn record rejected" true
    (Store.find s ~digest:"d0005" ~depth = None);
  Store.close s;
  (* After recovery the tail is gone for good; the flipped record is
     still on disk (only gc rewrites history) but reported. *)
  (match Store.verify dir with
  | Error e -> Alcotest.failf "verify after recovery: %s" e
  | Ok r ->
      Util.check_int "no torn bytes after recovery" 0 r.Store.torn_bytes;
      Util.check_int "flipped record still reported" 1
        (List.length r.Store.violations));
  (* Appending after recovery resumes a well-framed log. *)
  let s = Store.open_ dir in
  ignore (Store.add s ~digest:"d0006" ~depth exact_v);
  Store.close s;
  match Store.verify dir with
  | Error e -> Alcotest.failf "verify after append: %s" e
  | Ok r ->
      Util.check_int "append after recovery frames correctly" 4 r.Store.intact;
      Util.check_int "torn bytes" 0 r.Store.torn_bytes

let test_foreign_file_refused () =
  let dir = fresh_dir () in
  ignore (Store.open_ dir |> fun s -> Store.close s);
  write_file (Store.log_path dir) "not a store at all";
  (match Store.open_ dir with
  | exception Store.Error _ -> ()
  | s ->
      Store.close s;
      Alcotest.fail "foreign file should be refused");
  match Store.verify dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "verify should refuse a foreign file"

(* --- engine wiring --------------------------------------------------- *)

let test_second_run_recomputes_nothing () =
  let dir = fresh_dir () in
  let batch = paper_batch () in
  let s = Store.open_ dir in
  let cold, cold_stats =
    Engine.run_batch ~domains:1 ~store:s batch
  in
  Util.check_int "cold run computes everything" (List.length batch)
    cold_stats.Engine.cache_misses;
  Util.check_int "cold run writes everything" (List.length batch)
    cold_stats.Engine.store_writes;
  Util.check_int "cold run has no store hits" 0 cold_stats.Engine.store_hits;
  Store.close s;
  (* A new process = a new handle and a cold in-memory cache. *)
  let s = Store.open_ dir in
  let warm, warm_stats = Engine.run_batch ~domains:1 ~store:s batch in
  Store.close s;
  Util.check_int "warm run recomputes zero cacheable jobs" 0
    warm_stats.Engine.cache_misses;
  Util.check_int "warm run answers everything from the store"
    (List.length batch) warm_stats.Engine.store_hits;
  Util.check_int "warm run writes nothing" 0 warm_stats.Engine.store_writes;
  Util.check_bool "warm verdicts ≡ cold verdicts" true
    (verdicts_equal cold warm);
  List.iter
    (fun (r : Engine.result) ->
      Util.check_bool "marked from_store" true r.Engine.from_store)
    warm

(* Bounded verdicts are only reused at ≥ the requested depth: the same
   query at a greater depth must recompute. *)
let test_deeper_request_recomputes () =
  let dir = fresh_dir () in
  let q = Job.Deadlock { left = Ex.client2; right = Ex.write_acc } in
  let s = Store.open_ dir in
  let _, st1 =
    Engine.run_batch ~domains:1 ~store:s [ req ~depth:3 q ]
  in
  Util.check_int "first run computes" 1 st1.Engine.cache_misses;
  let results, st2 =
    Engine.run_batch ~domains:1 ~store:s [ req ~depth:6 q ]
  in
  Store.close s;
  (* The depth-3 record may answer only if it came out exact. *)
  match (List.hd results).Engine.verdict.V.confidence with
  | Some V.Exact | None ->
      Util.check_int "exact answers any depth" 1 st2.Engine.store_hits
  | Some (V.Bounded _) ->
      Util.check_int "bounded@3 cannot answer depth 6" 1
        st2.Engine.cache_misses

let test_gc_drops_unreferenced () =
  let dir = fresh_dir () in
  let s = Store.open_ dir in
  ignore (Store.add s ~digest:"keep1" ~depth exact_v);
  ignore (Store.add s ~digest:"keep2" ~depth (bounded_v 4));
  ignore (Store.add s ~digest:"drop1" ~depth exact_v);
  (* superseded record: two generations for keep2 *)
  ignore (Store.add s ~digest:"keep2" ~depth:9 (bounded_v 9));
  let kept, dropped =
    Store.gc s ~keep:(fun d -> String.length d >= 4 && String.sub d 0 4 = "keep")
  in
  Util.check_int "kept" 2 kept;
  Util.check_int "dropped" 1 dropped;
  Util.check_bool "kept entries still answer" true
    (Store.find s ~digest:"keep2" ~depth:9 <> None);
  Util.check_bool "dropped entry is gone" true
    (Store.find s ~digest:"drop1" ~depth = None);
  (* The handle stays usable for appends after the rename. *)
  ignore (Store.add s ~digest:"keep3" ~depth exact_v);
  Store.close s;
  let s = Store.open_ dir in
  Util.check_int "compacted log: one record per surviving digest" 3
    (Store.stats s).Store.records;
  Util.check_bool "post-gc append survives reopen" true
    (Store.find s ~digest:"keep3" ~depth <> None);
  Store.close s

let test_two_handles_interleave () =
  let dir = fresh_dir () in
  let a = Store.open_ dir and b = Store.open_ dir in
  for i = 1 to 10 do
    let h = if i mod 2 = 0 then a else b in
    ignore (Store.add h ~digest:(Printf.sprintf "h%04d" i) ~depth exact_v)
  done;
  Store.close a;
  Store.close b;
  match Store.verify dir with
  | Error e -> Alcotest.failf "interleaved appends damaged the log: %s" e
  | Ok r ->
      Util.check_int "all 10 records intact" 10 r.Store.intact;
      Util.check_int "no violations" 0 (List.length r.Store.violations);
      Util.check_int "no torn bytes" 0 r.Store.torn_bytes

let test_crc32_vectors () =
  (* the classic check value, plus the empty message *)
  Util.check_bool "crc32(\"123456789\")" true
    (Crc32.string "123456789" = 0xCBF43926l);
  Util.check_bool "crc32(\"\")" true (Crc32.string "" = 0l);
  Util.check_bool "incremental = one-shot" true
    (let s = "the quick brown fox" in
     let b = Bytes.of_string s in
     let half = String.length s / 2 in
     Crc32.bytes ~crc:(Crc32.bytes b ~pos:0 ~len:half) b ~pos:half
       ~len:(String.length s - half)
     = Crc32.string s)

let suite =
  [
    Alcotest.test_case "CRC-32 test vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "add/close/reopen round-trips verdicts" `Quick
      test_reopen_round_trip;
    Alcotest.test_case "bounded verdicts respect the depth rule" `Quick
      test_depth_rule;
    Alcotest.test_case "torn tail + flipped CRC recover cleanly" `Quick
      test_corruption_recovery;
    Alcotest.test_case "foreign files are refused" `Quick
      test_foreign_file_refused;
    Alcotest.test_case "second batch run recomputes nothing" `Quick
      test_second_run_recomputes_nothing;
    Alcotest.test_case "deeper requests bypass shallow records" `Quick
      test_deeper_request_recomputes;
    Alcotest.test_case "gc drops unreferenced and superseded records" `Quick
      test_gc_drops_unreferenced;
    Alcotest.test_case "two handles interleave appends safely" `Quick
      test_two_handles_interleave;
  ]
