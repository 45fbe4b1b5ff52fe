(** Runtime and GC metrics in the default {!Metrics} registry.

    Registers on first use (any call below):

    - counters [posl_gc_minor_words_total], [posl_gc_major_words_total],
      [posl_gc_minor_collections_total], [posl_gc_major_collections_total],
      [posl_gc_compactions_total];
    - gauges [posl_gc_heap_words], [posl_process_rss_bytes];
    - histogram [posl_gc_pause_ms] — heartbeat-oversleep samples, an
      upper-bound proxy for stop-the-world GC pause latency (a pause
      stalls the heartbeat thread exactly like any other mutator), with
      no dependency on [Gc.Memprof] or runtime events.

    All of it is [Gc.quick_stat]-based and safe to call from any
    domain. *)

val sample : unit -> unit
(** Fold the [Gc.quick_stat] delta since the previous sample into the
    counters and refresh the heap/RSS gauges.  Call it before every
    scrape: nothing samples in the background. *)

val start : unit -> unit
(** Take a first {!sample} and start the pause heartbeat thread (a
    5 ms tick).  Idempotent while running. *)

val stop : unit -> unit
(** Stop the heartbeat (joins the thread), then take a final
    {!sample}.  No-op when not running. *)

val with_gc_attrs : (unit -> 'a) -> 'a
(** [with_gc_attrs f] runs [f] and attaches the [Gc.quick_stat] deltas
    it incurred ([gc_minor_words], [gc_major_words],
    [gc_minor_collections], [gc_major_collections]) to the calling
    domain's innermost open span via {!Telemetry.set_attrs}.  Intended
    directly inside [Telemetry.with_span].  When telemetry is disabled
    this is just [f ()]. *)
