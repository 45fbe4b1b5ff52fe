(* The observability layer (posl.telemetry): span nesting and ordering
   invariants of the per-domain rings, histogram percentile accuracy
   (within the factor-√2 bucket guarantee), the Chrome trace JSON
   round-tripping through our own JSON reader under adversarial span
   names, and a multi-domain hammer proving the rings never corrupt. *)

module Telemetry = Posl_telemetry.Telemetry
module Metrics = Posl_telemetry.Metrics
module Log = Posl_telemetry.Log
module Runtime = Posl_telemetry.Runtime
module Json = Posl_verdict.Verdict.Json
module Engine = Posl_engine.Engine
module Job = Posl_engine.Job
module Cache = Posl_engine.Cache
module Ex = Posl_core.Examples_paper
module G = QCheck2.Gen

(* Every test that enables telemetry must leave it disabled and empty,
   whatever happens — other suites in this binary run afterwards. *)
let traced f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

let find_span name spans =
  match List.find_opt (fun (s : Telemetry.span) -> s.name = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

(* Nesting: the inner span's parent is the outer span's id, its
   interval is contained in the outer's, and ids are distinct. *)
let test_nesting () =
  traced @@ fun () ->
  let inner_id = ref None in
  Telemetry.with_span "outer" (fun () ->
      Telemetry.with_span "inner" (fun () ->
          inner_id := Telemetry.current_span_id ();
          ignore (Sys.opaque_identity (List.init 100 Fun.id))));
  let spans = Telemetry.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = find_span "outer" spans in
  let inner = find_span "inner" spans in
  Alcotest.(check bool) "distinct ids" true (outer.id <> inner.id);
  Alcotest.(check (option int))
    "current_span_id saw the inner span" (Some inner.id) !inner_id;
  Alcotest.(check (option int)) "inner nests under outer" (Some outer.id)
    inner.parent;
  Alcotest.(check (option int)) "outer is a root" None outer.parent;
  Alcotest.(check bool) "inner starts after outer" true
    (inner.start_ns >= outer.start_ns);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
  Alcotest.(check bool) "durations non-negative" true
    (outer.dur_ns >= 0 && inner.dur_ns >= 0)

(* Siblings recorded one after the other keep their order under the
   start-time sort, and do not nest under each other. *)
let test_sibling_order () =
  traced @@ fun () ->
  List.iter (fun n -> Telemetry.with_span n (fun () -> ())) [ "a"; "b"; "c" ];
  match Telemetry.spans () with
  | [ a; b; c ] ->
      Alcotest.(check string) "first" "a" a.Telemetry.name;
      Alcotest.(check string) "second" "b" b.Telemetry.name;
      Alcotest.(check string) "third" "c" c.Telemetry.name;
      List.iter
        (fun (s : Telemetry.span) ->
          Alcotest.(check (option int)) "all roots" None s.parent)
        [ a; b; c ]
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

(* Disabled telemetry records nothing and still runs the thunk. *)
let test_disabled_noop () =
  Telemetry.reset ();
  Telemetry.set_enabled false;
  let r = Telemetry.with_span "ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Telemetry.spans ()))

(* Attributes: open-time attrs survive, and [set_attrs] mid-span
   appends to the innermost open span only. *)
let test_attrs () =
  traced @@ fun () ->
  Telemetry.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
      Telemetry.with_span "inner" (fun () ->
          Telemetry.set_attrs [ ("mid", "1") ]));
  let spans = Telemetry.spans () in
  let outer = find_span "outer" spans in
  let inner = find_span "inner" spans in
  Alcotest.(check (option string))
    "open-time attr" (Some "v")
    (List.assoc_opt "k" outer.attrs);
  Alcotest.(check (option string))
    "mid-span attr lands on the inner span" (Some "1")
    (List.assoc_opt "mid" inner.attrs);
  Alcotest.(check (option string))
    "outer does not get the inner's attr" None
    (List.assoc_opt "mid" outer.attrs)

(* A raising thunk still closes its span, and the exception escapes. *)
let test_exception_closes_span () =
  traced @@ fun () ->
  (try Telemetry.with_span "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  let spans = Telemetry.spans () in
  Alcotest.(check int) "span recorded despite raise" 1 (List.length spans);
  ignore (find_span "boom" spans)

(* Histogram percentiles on a known distribution: 1..100 ms uniform.
   The log-bucket guarantee is a factor of √2 either side. *)
let test_percentiles_known () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "t_ms" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 100 (Metrics.count h);
  Alcotest.(check bool) "sum" true (abs_float (Metrics.sum h -. 5050.) < 1e-6);
  let within p truth =
    let est = Metrics.percentile h p in
    let lo = truth /. sqrt 2. and hi = truth *. sqrt 2. in
    if not (est >= lo && est <= hi) then
      Alcotest.failf "p%.0f = %.3f outside [%.3f, %.3f]" p est lo hi
  in
  within 50. 50.;
  within 90. 90.;
  within 99. 99.

(* All samples equal: every percentile collapses into that one bucket. *)
let test_percentile_single_bucket () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "t_ms" in
  for _ = 1 to 50 do
    Metrics.observe h 7.
  done;
  List.iter
    (fun p ->
      let est = Metrics.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f in the 7ms bucket" p)
        true
        (est >= 7. /. sqrt 2. && est <= 7. *. sqrt 2.))
    [ 1.; 50.; 99. ];
  Alcotest.(check bool) "empty histogram -> 0" true
    (Metrics.percentile (Metrics.histogram ~registry:r "other") 50. = 0.)

(* The registry is get-or-create by name, and kind mismatches raise. *)
let test_registry_semantics () =
  let r = Metrics.create () in
  let c1 = Metrics.counter ~registry:r "reqs" in
  let c2 = Metrics.counter ~registry:r "reqs" in
  Metrics.incr c1;
  Metrics.add c2 2;
  Alcotest.(check int) "same counter under the hood" 3 (Metrics.value c1);
  let g = Metrics.gauge ~registry:r "depth" in
  Metrics.set g 4.5;
  Alcotest.(check bool) "gauge holds last value" true
    (Metrics.gauge_value g = 4.5);
  Alcotest.(check bool) "kind mismatch raises" true
    (match Metrics.gauge ~registry:r "reqs" with
    | (_ : Metrics.gauge) -> false
    | exception Invalid_argument _ -> true)

(* Prometheus exposition: headers, bucket lines, sum and count. *)
let test_expose_format () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"requests served" "reqs_total" in
  Metrics.add c 5;
  let h = Metrics.histogram ~registry:r "lat_ms" in
  Metrics.observe h 3.;
  let text = Metrics.expose ~registry:r () in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (has needle))
    [
      "# HELP reqs_total requests served";
      "# TYPE reqs_total counter";
      "reqs_total 5";
      "# TYPE lat_ms histogram";
      "lat_ms_bucket{le=\"+Inf\"} 1";
      "lat_ms_sum 3";
      "lat_ms_count 1";
    ]

(* The trace JSON parses with our own reader whatever the span names
   and attribute values contain — quotes, backslashes, control bytes,
   non-ASCII. *)
let adversarial_string =
  G.string_size ~gen:(G.oneof [ G.printable; G.char ]) (G.int_range 0 20)

let test_trace_json_roundtrip =
  Util.qtest ~count:100 "trace JSON parses under adversarial names"
    (G.pair adversarial_string adversarial_string)
    (fun (name, attr) ->
      traced @@ fun () ->
      Telemetry.with_span name ~attrs:[ (attr, attr) ] (fun () ->
          Telemetry.with_span "child" (fun () -> ()));
      let text = Telemetry.trace_json () in
      match Json.of_string text with
      | Error e -> QCheck2.Test.fail_reportf "unparseable: %s" e
      | Ok (Json.Obj fields) -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.List events) -> List.length events = 2
          | _ -> QCheck2.Test.fail_reportf "missing traceEvents array")
      | Ok _ -> QCheck2.Test.fail_reportf "not an object")

(* Four domains recording concurrently: ids stay unique, every span is
   well-formed, each ring's spans are start-ordered per tid, and the
   survivor count is exact (nothing dropped below the ring cap). *)
let test_multi_domain_hammer () =
  traced @@ fun () ->
  let per_domain = 500 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Telemetry.with_span "outer" (fun () ->
                  Telemetry.with_span "inner" (fun () -> ()))
            done))
  in
  List.iter Domain.join domains;
  let spans = Telemetry.spans () in
  Alcotest.(check int) "exact survivor count" (4 * per_domain * 2)
    (List.length spans);
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.dropped ());
  let ids = List.map (fun (s : Telemetry.span) -> s.id) spans in
  Alcotest.(check int) "ids unique" (List.length spans)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun (s : Telemetry.span) ->
      Alcotest.(check bool) "well-formed" true
        (s.dur_ns >= 0 && s.start_ns > 0 && s.id > 0))
    spans;
  (* inner spans parent under an outer of the same ring *)
  let by_id = Hashtbl.create 512 in
  List.iter (fun (s : Telemetry.span) -> Hashtbl.add by_id s.id s) spans;
  List.iter
    (fun (s : Telemetry.span) ->
      if s.name = "inner" then
        match s.parent with
        | None -> Alcotest.fail "inner span without parent"
        | Some p -> (
            match Hashtbl.find_opt by_id p with
            | Some (parent : Telemetry.span) ->
                Alcotest.(check string) "parent is an outer" "outer"
                  parent.name;
                Alcotest.(check int) "parent on the same ring" s.tid
                  parent.tid
            | None -> Alcotest.fail "dangling parent id"))
    spans;
  (* per-ring start times are monotone (single writer per ring) *)
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (s : Telemetry.span) ->
      let prev = Option.value (Hashtbl.find_opt by_tid s.tid) ~default:0 in
      Alcotest.(check bool) "per-ring start order" true (s.start_ns >= prev);
      Hashtbl.replace by_tid s.tid s.start_ns)
    spans

(* Overflow: write past the ring cap on one domain; the ring wraps,
   keeps the newest spans and counts the overwritten ones. *)
let test_ring_overflow () =
  traced @@ fun () ->
  let total = 70_000 in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to total do
          Telemetry.with_span "tick" (fun () -> ())
        done)
  in
  Domain.join d;
  let survived = List.length (Telemetry.spans ()) in
  let dropped = Telemetry.dropped () in
  Alcotest.(check bool) "some spans dropped" true (dropped > 0);
  Alcotest.(check int) "survivors + dropped = written" total
    (survived + dropped)

(* End to end through the engine: with telemetry on, every batch result
   carries a distinct span id resolving to an [engine.job] span. *)
let test_engine_span_ids () =
  traced @@ fun () ->
  let reqs =
    [
      Engine.request ~depth:3 ~universe:Util.paper_universe
        (Job.Refine { refined = Ex.read2; abstract = Ex.read });
      Engine.request ~depth:3 ~universe:Util.paper_universe
        (Job.Refine { refined = Ex.rw; abstract = Ex.write });
    ]
  in
  let results, _ = Engine.run_batch ~domains:1 reqs in
  let spans = Telemetry.spans () in
  let jobs =
    List.filter (fun (s : Telemetry.span) -> s.name = "engine.job") spans
  in
  Alcotest.(check int) "one engine.job span per result" (List.length results)
    (List.length jobs);
  let ids =
    List.map
      (fun (r : Engine.result) ->
        match r.Engine.span_id with
        | Some id -> id
        | None -> Alcotest.fail "result without span id")
      results
  in
  Alcotest.(check int) "span ids distinct" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      Alcotest.(check bool) "span id resolves to an engine.job" true
        (List.exists (fun (s : Telemetry.span) -> s.id = id) jobs))
    ids

(* Context propagation: a context captured inside a span and installed
   on another domain re-roots that domain's spans under the original
   parent, with the trace id flowing to every descendant. *)
let test_cross_domain_context () =
  traced @@ fun () ->
  let ctx = ref Telemetry.root_context in
  Telemetry.with_context
    { Telemetry.trace_id = Some "req-1"; parent = None }
    (fun () ->
      Telemetry.with_span "handle" (fun () ->
          ctx := Telemetry.current_context ()));
  let handle = find_span "handle" (Telemetry.spans ()) in
  Alcotest.(check (option string))
    "context carries the trace id" (Some "req-1") !ctx.Telemetry.trace_id;
  Alcotest.(check (option int))
    "context parent is the open span" (Some handle.Telemetry.id)
    !ctx.Telemetry.parent;
  let d =
    Domain.spawn (fun () ->
        Telemetry.with_context !ctx (fun () ->
            Telemetry.with_span "worker" (fun () ->
                Telemetry.with_span "nested" (fun () -> ()))))
  in
  Domain.join d;
  let spans = Telemetry.spans () in
  let worker = find_span "worker" spans in
  let nested = find_span "nested" spans in
  Alcotest.(check (option int))
    "worker re-roots under handle across the domain boundary"
    (Some handle.Telemetry.id) worker.Telemetry.parent;
  Alcotest.(check (option int))
    "nested keeps the in-domain parent" (Some worker.Telemetry.id)
    nested.Telemetry.parent;
  List.iter
    (fun (s : Telemetry.span) ->
      Alcotest.(check (option string))
        (s.name ^ " tagged with the trace id")
        (Some "req-1") s.trace_id)
    [ handle; worker; nested ];
  (* the trace id travels into the export *)
  Alcotest.(check bool) "trace_json mentions the trace id" true
    (let text = Telemetry.trace_json () in
     let needle = {|"trace_id":"req-1"|} in
     let n = String.length needle and l = String.length text in
     let rec go i =
       i + n <= l && (String.sub text i n = needle || go (i + 1))
     in
     go 0)

(* Two systhreads of one domain interleave their requests: each must
   keep its own open-span stack and trace id.  With a shared per-domain
   ring, [inner-b] would nest under [outer-a]'s still-open span and
   steal its trace id — exactly the cross-request contamination the
   server's per-connection threads would otherwise hit. *)
let test_thread_isolation () =
  traced @@ fun () ->
  let a_open = Atomic.make false and b_done = Atomic.make false in
  let t_a =
    Thread.create
      (fun () ->
        Telemetry.with_context
          { Telemetry.trace_id = Some "ta"; parent = None }
          (fun () ->
            Telemetry.with_span "outer-a" (fun () ->
                Atomic.set a_open true;
                while not (Atomic.get b_done) do Thread.yield () done)))
      ()
  in
  let t_b =
    Thread.create
      (fun () ->
        while not (Atomic.get a_open) do Thread.yield () done;
        Telemetry.with_context
          { Telemetry.trace_id = Some "tb"; parent = None }
          (fun () -> Telemetry.with_span "inner-b" (fun () -> ()));
        Atomic.set b_done true)
      ()
  in
  Thread.join t_a;
  Thread.join t_b;
  let spans = Telemetry.spans () in
  let a = find_span "outer-a" spans in
  let b = find_span "inner-b" spans in
  Alcotest.(check (option string))
    "a keeps its trace id" (Some "ta") a.Telemetry.trace_id;
  Alcotest.(check (option string))
    "b keeps its own trace id despite a's open span" (Some "tb")
    b.Telemetry.trace_id;
  Alcotest.(check (option int))
    "b does not nest under a" None b.Telemetry.parent;
  Alcotest.(check bool) "threads record to distinct rings" false
    (a.Telemetry.tid = b.Telemetry.tid)

(* [emit] records an already-measured interval verbatim, rooted at the
   supplied context — the queue-wait shape. *)
let test_emit_interval () =
  traced @@ fun () ->
  let ctx =
    { Telemetry.trace_id = Some "req-2"; parent = None }
  in
  let parent_id = ref 0 in
  Telemetry.with_context ctx (fun () ->
      Telemetry.with_span "handle" (fun () ->
          parent_id :=
            Option.value (Telemetry.current_span_id ()) ~default:(-1)));
  let handle_ctx =
    { Telemetry.trace_id = Some "req-2"; parent = Some !parent_id }
  in
  Telemetry.emit ~context:handle_ctx "queue_wait"
    ~attrs:[ ("wait_ms", "1.5") ]
    ~start_ns:1_000 ~dur_ns:500;
  let qw = find_span "queue_wait" (Telemetry.spans ()) in
  Alcotest.(check int) "start as measured" 1_000 qw.Telemetry.start_ns;
  Alcotest.(check int) "duration as measured" 500 qw.Telemetry.dur_ns;
  Alcotest.(check (option int))
    "parent from the context" (Some !parent_id) qw.Telemetry.parent;
  Alcotest.(check (option string))
    "trace id from the context" (Some "req-2") qw.Telemetry.trace_id;
  Alcotest.(check (option string))
    "attrs survive" (Some "1.5")
    (List.assoc_opt "wait_ms" qw.Telemetry.attrs)

(* ---------------- structured log ---------------- *)

(* Run [f] with a sink capturing every streamed line; [f] reads the
   lines captured so far, oldest first. *)
let logged f =
  let seen = ref [] in
  Log.set_level Log.Info;
  Log.set_sink (Some (fun line -> seen := line :: !seen));
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level Log.Info)
    (fun () -> f (fun () -> List.rev !seen))

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let json_fields line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> fields
  | Ok _ | Error _ -> Alcotest.failf "log line is not a JSON object: %s" line

let test_log_levels_and_fields () =
  logged @@ fun lines ->
  Log.event ~level:Log.Debug "invisible";
  Log.event ~level:Log.Warn
    ~fields:
      [ ("s", Log.S "x\"y"); ("i", Log.I 3); ("f", Log.F 1.5); ("b", Log.B true) ]
    "visible";
  (match lines () with
  | [ line ] ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "line has %s" needle)
            true (contains line needle))
        [
          {|"level":"warn"|};
          {|"event":"visible"|};
          {|"s":"x\"y"|};
          {|"i":3|};
          {|"f":1.5|};
          {|"b":true|};
        ];
      Alcotest.(check bool) "wall clock set" true
        (match List.assoc_opt "ts" (json_fields line) with
        | Some (Json.Float t) -> t > 0.
        | _ -> false)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  (* raising the level discards below it *)
  Log.set_level Log.Error;
  Log.event ~level:Log.Warn "also invisible";
  Alcotest.(check int) "warn dropped below error level" 1
    (List.length (lines ()))

let test_log_trace_id_defaults_from_context () =
  traced @@ fun () ->
  logged @@ fun lines ->
  Log.event "outside";
  Telemetry.with_context
    { Telemetry.trace_id = Some "req-7"; parent = None }
    (fun () -> Log.event "inside");
  match List.map json_fields (lines ()) with
  | [ out; inside ] ->
      Alcotest.(check bool) "no ambient trace id" true
        (List.assoc_opt "trace_id" out = None);
      Alcotest.(check bool)
        "trace id inherited from the installed context" true
        (List.assoc_opt "trace_id" inside = Some (Json.Str "req-7"))
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_log_sink () =
  logged @@ fun lines ->
  Log.event ~fields:[ ("n", Log.I 1) ] "a";
  Log.event ~fields:[ ("n", Log.I 2) ] "b";
  Log.set_sink None;
  Log.event "not streamed";
  Alcotest.(check int) "sink saw exactly the streamed events" 2
    (List.length (lines ()));
  Alcotest.(check bool) "sink lines are the rendered events" true
    (match lines () with
    | [ a; b ] -> contains a {|"event":"a"|} && contains b {|"event":"b"|}
    | _ -> false)

(* ---------------- runtime / gc metrics ---------------- *)

let test_runtime_sampler () =
  Runtime.start ();
  (* force allocation and at least one major cycle so the counters have
     something to see *)
  let junk = ref [] in
  for i = 1 to 200 do
    junk := Array.make 1_000 i :: !junk;
    if i mod 50 = 0 then junk := []
  done;
  Gc.full_major ();
  Runtime.stop ();
  Runtime.sample ();
  let text = Metrics.expose () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposes %s" needle) true
        (contains text needle))
    [
      "# TYPE posl_gc_minor_words_total counter";
      "# TYPE posl_gc_major_collections_total counter";
      "# TYPE posl_gc_heap_words gauge";
      "# TYPE posl_gc_pause_ms histogram";
      "posl_gc_pause_ms_count";
    ];
  let minor_words =
    Metrics.value (Metrics.counter "posl_gc_minor_words_total")
  in
  Alcotest.(check bool) "allocation observed" true (minor_words > 0);
  Alcotest.(check bool) "heap gauge live" true
    (Metrics.gauge_value (Metrics.gauge "posl_gc_heap_words") > 0.);
  (* idempotent start/stop; stop twice is a no-op *)
  Runtime.start ();
  Runtime.start ();
  Runtime.stop ();
  Runtime.stop ()

let test_gc_attrs_on_span () =
  traced @@ fun () ->
  Telemetry.with_span "job" (fun () ->
      Runtime.with_gc_attrs (fun () ->
          (* small blocks so the allocation goes through the minor heap *)
          let acc = ref [] in
          for i = 1 to 5_000 do
            acc := (i, i) :: !acc
          done;
          ignore (Sys.opaque_identity !acc)));
  let job = find_span "job" (Telemetry.spans ()) in
  match List.assoc_opt "gc_minor_words" job.Telemetry.attrs with
  | None -> Alcotest.fail "span lacks gc_minor_words"
  | Some w ->
      Alcotest.(check bool) "allocation attributed to the span" true
        (float_of_string w >= 5_000.)

(* ---------------- prometheus conformance ---------------- *)

(* HELP text and histogram label values escape per the text-format
   rules: backslash and newline in HELP; backslash, quote and newline
   in label values. *)
let test_expose_help_escaping () =
  let r = Metrics.create () in
  let _ =
    Metrics.counter ~registry:r ~help:"line one\nline two \\ done" "esc_total"
  in
  let text = Metrics.expose ~registry:r () in
  Alcotest.(check bool) "newline escaped in HELP" true
    (contains text {|# HELP esc_total line one\nline two \\ done|});
  Alcotest.(check bool) "no raw newline inside the HELP text" false
    (contains text "line one\nline two")

(* Exposed histogram buckets are cumulative: counts never decrease as
   [le] grows, and the +Inf bucket equals _count. *)
let test_expose_bucket_monotonic () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "mono_ms" in
  List.iter (Metrics.observe h) [ 0.003; 0.2; 1.0; 5.0; 5.1; 400.0 ];
  let text = Metrics.expose ~registry:r () in
  let lines = String.split_on_char '\n' text in
  let bucket_counts =
    List.filter_map
      (fun line ->
        if contains line "mono_ms_bucket{" then
          match String.rindex_opt line ' ' with
          | Some i ->
              int_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "several buckets exposed" true
    (List.length bucket_counts >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "bucket counts cumulative" true
    (monotone bucket_counts);
  let last = List.nth bucket_counts (List.length bucket_counts - 1) in
  Alcotest.(check int) "+Inf bucket equals count" 6 last;
  Alcotest.(check bool) "+Inf is the last bucket" true
    (contains text {|mono_ms_bucket{le="+Inf"} 6|})

(* Scraping while four domains mutate: every expose is parseable-shaped
   (every sample line ends in a number) and counter values never go
   backwards between scrapes. *)
let test_expose_concurrent_stability () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "conc_total" in
  let h = Metrics.histogram ~registry:r "conc_ms" in
  let stop = Atomic.make false in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              incr i;
              Metrics.incr c;
              Metrics.observe h (float_of_int (1 + ((d + !i) mod 40)))
            done))
  in
  let prev = ref (-1) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      List.iter Domain.join domains)
    (fun () ->
      for _ = 1 to 50 do
        let text = Metrics.expose ~registry:r () in
        List.iter
          (fun line ->
            if
              String.length line > 0
              && line.[0] <> '#'
              && not (String.trim line = "")
            then
              match String.rindex_opt line ' ' with
              | None -> Alcotest.failf "malformed sample line: %s" line
              | Some i -> (
                  let v =
                    String.sub line (i + 1) (String.length line - i - 1)
                  in
                  match float_of_string_opt v with
                  | Some f when Float.is_finite f -> ()
                  | Some _ | None ->
                      Alcotest.failf "non-numeric sample: %s" line))
          (String.split_on_char '\n' text);
        let now = Metrics.value c in
        Alcotest.(check bool) "counter monotone across scrapes" true
          (now >= !prev);
        prev := now
      done)

let suite =
  [
    Alcotest.test_case "span nesting" `Quick test_nesting;
    Alcotest.test_case "sibling order" `Quick test_sibling_order;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "attributes" `Quick test_attrs;
    Alcotest.test_case "raise closes span" `Quick test_exception_closes_span;
    Alcotest.test_case "percentiles (uniform 1..100)" `Quick
      test_percentiles_known;
    Alcotest.test_case "percentiles (one bucket)" `Quick
      test_percentile_single_bucket;
    Alcotest.test_case "registry get-or-create" `Quick test_registry_semantics;
    Alcotest.test_case "prometheus exposition" `Quick test_expose_format;
    test_trace_json_roundtrip;
    Alcotest.test_case "4-domain hammer" `Quick test_multi_domain_hammer;
    Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
    Alcotest.test_case "engine span ids" `Quick test_engine_span_ids;
    Alcotest.test_case "cross-domain context" `Quick test_cross_domain_context;
    Alcotest.test_case "thread isolation (shared domain)" `Quick
      test_thread_isolation;
    Alcotest.test_case "emit measured interval" `Quick test_emit_interval;
    Alcotest.test_case "log levels and fields" `Quick
      test_log_levels_and_fields;
    Alcotest.test_case "log trace id from context" `Quick
      test_log_trace_id_defaults_from_context;
    Alcotest.test_case "log sink" `Quick test_log_sink;
    Alcotest.test_case "runtime gc sampler" `Quick test_runtime_sampler;
    Alcotest.test_case "gc attrs on span" `Quick test_gc_attrs_on_span;
    Alcotest.test_case "prometheus HELP escaping" `Quick
      test_expose_help_escaping;
    Alcotest.test_case "prometheus cumulative buckets" `Quick
      test_expose_bucket_monotonic;
    Alcotest.test_case "prometheus concurrent scrape" `Quick
      test_expose_concurrent_stability;
  ]
