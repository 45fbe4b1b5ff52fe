(* The lock-striped compiled-automata cache: sequential contract
   (hit/miss accounting, first-insert-wins, clear), a 4-domain hammer
   on overlapping keys (every caller must observe its own key's value;
   no duplicate-insert corruption), verdict equality between a serial
   run and 4 domains sharing one Tset context on the paper corpus, and
   qcheck properties over regex keys forced onto colliding stripes. *)

module Prs_cache = Posl_tset.Prs_cache
module Tset = Posl_tset.Tset
module Regex = Posl_regex.Regex
module Epat = Posl_regex.Epat
module Par = Posl_par.Par
module Spec = Posl_core.Spec
module Ex = Posl_core.Examples_paper
module Trace = Posl_trace.Trace
module Oset = Posl_sets.Oset
module Mset = Posl_sets.Mset
module Gen = Posl_gen.Gen
module G = QCheck2.Gen

(* --- sequential contract -------------------------------------------- *)

let test_find_or_compute () =
  let c = Prs_cache.create ~stripes:4 () in
  let calls = ref 0 in
  let get k =
    Prs_cache.find_or_compute c k (fun () ->
        incr calls;
        k * 10)
  in
  Util.check_int "computed" 70 (get 7);
  Util.check_int "cached" 70 (get 7);
  Util.check_int "distinct key" 30 (get 3);
  Util.check_int "compute ran once per key" 2 !calls;
  Util.check_int "length" 2 (Prs_cache.length c);
  let s = Prs_cache.stats c in
  Util.check_int "hits" 1 s.Prs_cache.hits;
  Util.check_int "misses" 2 s.Prs_cache.misses;
  Util.check_int "duplicates" 0 s.Prs_cache.duplicates;
  Prs_cache.clear c;
  Util.check_int "cleared" 0 (Prs_cache.length c);
  Util.check_int "recomputed after clear" 70 (get 7);
  Util.check_int "compute ran again" 3 !calls

let test_stripes_rounding () =
  Util.check_int "power of two kept" 8
    (Prs_cache.stripes (Prs_cache.create ~stripes:8 ()));
  Util.check_int "rounded up" 8
    (Prs_cache.stripes (Prs_cache.create ~stripes:5 ()));
  Util.check_int "minimum one" 1
    (Prs_cache.stripes (Prs_cache.create ~stripes:0 ()))

(* --- 4-domain hammer ------------------------------------------------- *)

(* 4 domains × many iterations over 32 overlapping keys, with a compute
   slow enough to open the duplicate-compilation race window.  Every
   call must return its own key's value, the table must hold exactly
   one entry per key (no duplicate-insert corruption), and the stats
   must balance. *)
let test_domain_hammer () =
  let c = Prs_cache.create ~stripes:4 () in
  let n_keys = 32 and per_domain = 400 in
  let work d =
    let bad = ref 0 in
    for i = 0 to per_domain - 1 do
      let k = (i + (d * 7)) mod n_keys in
      let v =
        Prs_cache.find_or_compute c k (fun () ->
            (* a deliberately slow compute *)
            let acc = ref 0 in
            for j = 0 to 5_000 do
              acc := !acc + ((j + k) mod 17)
            done;
            (k, !acc))
      in
      if fst v <> k then incr bad
    done;
    !bad
  in
  let bads = Par.map_dyn ~domains:4 work [ 0; 1; 2; 3 ] in
  Util.check_int "every call saw its own key's value" 0
    (List.fold_left ( + ) 0 bads);
  Util.check_int "one entry per key" n_keys (Prs_cache.length c);
  let s = Prs_cache.stats c in
  Util.check_int "hits + misses = calls" (4 * per_domain)
    (s.Prs_cache.hits + s.Prs_cache.misses);
  Util.check_bool "duplicates only from misses" true
    (s.Prs_cache.duplicates <= s.Prs_cache.misses);
  Util.check_bool "at least one compute per key" true
    (s.Prs_cache.misses >= n_keys)

(* --- shared Tset context across domains ------------------------------ *)

(* Verdict equality: membership verdicts computed by 4 domains sharing
   ONE context (one striped cache, overlapping regex keys compiled
   concurrently) must equal a serial run on a fresh context, and the
   shared cache must end up with exactly the serially-compiled set of
   automata. *)
let test_shared_ctx_verdicts () =
  let ow = Util.ev "c" "o" "OW"
  and cw = Util.ev "c" "o" "CW"
  and w = Util.ev ~arg:(Posl_ident.Value.v "d1") "c" "o" "W"
  and r = Util.ev "c" "o" "R" in
  let traces =
    [
      Trace.empty;
      Util.tr [ ow ];
      Util.tr [ ow; w; cw ];
      Util.tr [ w ];
      Util.tr [ ow; w; w; cw; ow; cw ];
      Util.tr [ r; r; r ];
      Util.tr [ ow; r ];
      Util.tr [ cw ];
    ]
  in
  let tsets = List.map Spec.tset Ex.all_specs in
  let cases =
    List.concat_map (fun t -> List.map (fun h -> (t, h)) traces) tsets
  in
  (* several repetitions so domains overlap on already/not-yet compiled
     regex keys *)
  let work = cases @ cases @ cases @ cases in
  let serial_ctx = Tset.ctx Util.paper_universe in
  let expected = List.map (fun (t, h) -> Tset.mem serial_ctx t h) work in
  let shared = Tset.ctx Util.paper_universe in
  let got = Par.map_dyn ~domains:4 (fun (t, h) -> Tset.mem shared t h) work in
  Util.check_bool "serial ≡ 4-domain shared-context verdicts" true
    (expected = got);
  Util.check_int "shared cache holds the serial automata set"
    (Prs_cache.length (Tset.prs_cache serial_ctx))
    (Prs_cache.length (Tset.prs_cache shared));
  let s = Prs_cache.stats (Tset.prs_cache shared) in
  Util.check_bool "shared cache was hit across domains" true
    (s.Prs_cache.hits > 0)

(* with_closure_cap is a derived constructor: same universe, same
   compiled automata (the physical cache), different cap. *)
let test_with_closure_cap_derived () =
  let c = Tset.ctx ~closure_cap:500 Util.paper_universe in
  let tight = Tset.with_closure_cap 7 c in
  Util.check_int "new cap" 7 (Tset.closure_cap tight);
  Util.check_int "old cap untouched" 500 (Tset.closure_cap c);
  Util.check_bool "universe preserved" true
    (Tset.universe tight == Tset.universe c);
  Util.check_bool "cache preserved" true
    (Tset.prs_cache tight == Tset.prs_cache c)

(* --- qcheck: regex keys on colliding stripes ------------------------- *)

let sc = Gen.default_scenario

(* Regex keys drawn over the scenario's concrete events.  With a
   2-stripe cache, hash collisions on a stripe are forced for half of
   all key pairs; with 1 stripe every pair collides — the property must
   hold regardless. *)
let regex_keys_gen =
  let events =
    Posl_sets.Eventset.sample sc.Gen.universe Posl_sets.Eventset.full
  in
  G.list_size (G.int_range 2 12) (Gen.regex_within ~max_depth:3 sc events)

let qsuite =
  [
    Util.qtest ~count:60
      "prs_cache: colliding regex keys never conflate (1 stripe)"
      regex_keys_gen
      (fun keys ->
        let c = Prs_cache.create ~stripes:1 () in
        (* one stripe ⟹ every distinct key pair collides *)
        List.for_all
          (fun k ->
            Stdlib.compare (Prs_cache.find_or_compute c k (fun () -> k)) k = 0)
          keys
        && Prs_cache.length c
           = List.length (List.sort_uniq Stdlib.compare keys));
    Util.qtest ~count:60
      "prs_cache: stripe-colliding pairs stay separate (2 stripes)"
      (G.pair regex_keys_gen regex_keys_gen)
      (fun (ks1, ks2) ->
        let c = Prs_cache.create ~stripes:2 () in
        let keys = ks1 @ ks2 in
        let tagged = List.mapi (fun i k -> (i, k)) keys in
        (* cache (key → first tag); later duplicates of a key must get
           the first tag back, collisions must never cross keys *)
        let seen = Hashtbl.create 16 in
        List.for_all
          (fun (i, k) ->
            let v = Prs_cache.find_or_compute c k (fun () -> i) in
            match Hashtbl.find_opt seen k with
            | None ->
                Hashtbl.add seen k v;
                v = i
                || (* another structurally equal key came first *)
                List.exists
                  (fun (j, k') -> j = v && Stdlib.compare k k' = 0)
                  tagged
            | Some first -> v = first)
          tagged);
  ]

let suite =
  [
    Alcotest.test_case "find_or_compute contract" `Quick test_find_or_compute;
    Alcotest.test_case "stripe rounding" `Quick test_stripes_rounding;
    Alcotest.test_case "4-domain hammer, overlapping keys" `Slow
      test_domain_hammer;
    Alcotest.test_case "serial ≡ shared-context verdicts (4 domains)" `Slow
      test_shared_ctx_verdicts;
    Alcotest.test_case "with_closure_cap is derived" `Quick
      test_with_closure_cap_derived;
  ]
  @ qsuite
