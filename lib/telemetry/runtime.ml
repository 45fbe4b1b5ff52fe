(* Runtime and GC metrics for the default registry.

   Two ingredients, both [Gc.Memprof]-free:

   - [sample] folds a [Gc.quick_stat] delta into cumulative counters
     (minor/major words, collections, compactions) and sets heap/RSS
     gauges.  Every scrape samples first (the serve [metrics] op,
     [--metrics FILE], [Runtime.stop]); counters fold deltas, so how
     often it runs does not change what they expose.

   - a heartbeat thread sleeps a short tick and records how much longer
     than the tick it actually slept into [posl_gc_pause_ms].  A
     stop-the-world pause (minor collection, major slice, compaction)
     stalls the heartbeat like any other mutator, so the oversleep
     distribution is an upper-bound proxy for GC pause latency that
     needs no runtime hooks; scheduler noise contaminates the low
     buckets, pauses dominate the tail. *)

let minor_words_c =
  Metrics.counter ~help:"Minor heap words allocated"
    "posl_gc_minor_words_total"

let major_words_c =
  Metrics.counter ~help:"Major heap words allocated (including promoted)"
    "posl_gc_major_words_total"

let minor_collections_c =
  Metrics.counter ~help:"Minor collections" "posl_gc_minor_collections_total"

let major_collections_c =
  Metrics.counter ~help:"Major collection cycles"
    "posl_gc_major_collections_total"

let compactions_c =
  Metrics.counter ~help:"Heap compactions" "posl_gc_compactions_total"

let heap_words_g =
  Metrics.gauge ~help:"Major heap size, words" "posl_gc_heap_words"

let rss_bytes_g =
  Metrics.gauge ~help:"Resident set size, bytes (0 when /proc is absent)"
    "posl_process_rss_bytes"

let pause_h =
  Metrics.histogram
    ~help:
      "Heartbeat oversleep, ms: upper-bound proxy for stop-the-world \
       GC pause latency"
    "posl_gc_pause_ms"

(* Cumulative quick_stat floor already folded into the counters. *)
type seen = {
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
}

let seen =
  { minor_words = 0.; major_words = 0.; minor_collections = 0;
    major_collections = 0; compactions = 0 }

let seen_mu = Mutex.create ()

let page_size = 4096 (* bytes; Unix does not expose sysconf *)

let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Scanf.bscanf (Scanf.Scanning.from_channel ic) " %d %d"
                (fun _size resident -> resident * page_size)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)

let sample () =
  Mutex.protect seen_mu @@ fun () ->
  let s = Gc.quick_stat () in
  (* quick_stat's minor_words only refreshes at collection boundaries
     on OCaml 5; [Gc.minor_words] reads the live allocation pointer *)
  let minor_words_now = Gc.minor_words () in
  let dminw = minor_words_now -. seen.minor_words in
  let dmajw = s.Gc.major_words -. seen.major_words in
  let dminc = s.Gc.minor_collections - seen.minor_collections in
  let dmajc = s.Gc.major_collections - seen.major_collections in
  let dcomp = s.Gc.compactions - seen.compactions in
  seen.minor_words <- minor_words_now;
  seen.major_words <- s.Gc.major_words;
  seen.minor_collections <- s.Gc.minor_collections;
  seen.major_collections <- s.Gc.major_collections;
  seen.compactions <- s.Gc.compactions;
  if dminw > 0. then Metrics.add minor_words_c (int_of_float dminw);
  if dmajw > 0. then Metrics.add major_words_c (int_of_float dmajw);
  if dminc > 0 then Metrics.add minor_collections_c dminc;
  if dmajc > 0 then Metrics.add major_collections_c dmajc;
  if dcomp > 0 then Metrics.add compactions_c dcomp;
  Metrics.set heap_words_g (float_of_int s.Gc.heap_words);
  Metrics.set rss_bytes_g (float_of_int (rss_bytes ()))

(* --- Background observation ---------------------------------------- *)

type running = { stop_flag : bool Atomic.t; thread : Thread.t }

let state : running option ref = ref None
let state_mu = Mutex.create ()

let tick_s = 0.005

let heartbeat stop_flag =
  while not (Atomic.get stop_flag) do
    let t0 = Telemetry.now_ns () in
    (try Thread.delay tick_s with Unix.Unix_error _ -> ());
    let slept_ms = float_of_int (Telemetry.now_ns () - t0) /. 1e6 in
    let oversleep = slept_ms -. (tick_s *. 1000.) in
    if oversleep > 0. then Metrics.observe pause_h oversleep
  done

let start () =
  Mutex.lock state_mu;
  (match !state with
  | Some _ -> ()
  | None ->
      sample ();
      let stop_flag = Atomic.make false in
      let thread = Thread.create heartbeat stop_flag in
      state := Some { stop_flag; thread });
  Mutex.unlock state_mu

let stop () =
  Mutex.lock state_mu;
  let prev = !state in
  state := None;
  Mutex.unlock state_mu;
  match prev with
  | None -> ()
  | Some { stop_flag; thread } ->
      Atomic.set stop_flag true;
      Thread.join thread;
      sample ()

(* --- Per-span attribution ------------------------------------------ *)

let with_gc_attrs f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    let minor0 = Gc.minor_words () in
    let finish () =
      let s1 = Gc.quick_stat () in
      Telemetry.set_attrs
        [
          ("gc_minor_words",
           Printf.sprintf "%.0f" (Gc.minor_words () -. minor0));
          ("gc_major_words",
           Printf.sprintf "%.0f" (s1.Gc.major_words -. s0.Gc.major_words));
          ("gc_minor_collections",
           string_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
          ("gc_major_collections",
           string_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
        ]
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end
