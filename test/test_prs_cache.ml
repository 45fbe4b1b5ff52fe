(* The compiled-automata cache: sequential contract (hit/miss
   accounting, first-insert-wins), a 4-domain hammer on overlapping
   keys (every caller must observe its own key's value; no
   duplicate-insert corruption), verdict equality between a serial run
   and 4 domains sharing one Tset context on the paper corpus (by
   membership, by refinement walks over the nodes' rows, and by walks
   over fresh parses while forced collections drop registry entries),
   and qcheck properties over regex keys. *)

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
  let c = Prs_cache.create () in
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
  (* A compute that inserts the same key first loses the insert race,
     deterministically: its caller gets the winner, and both ran. *)
  let won =
    Prs_cache.find_or_compute c 5 (fun () ->
        ignore (get 5);
        -1)
  in
  Util.check_int "first insert wins" 50 won;
  Util.check_int "the winner is kept" 50 (get 5);
  Util.check_int "both computes counted as misses" 4
    (Prs_cache.stats c).Prs_cache.misses

(* --- 4-domain hammer ------------------------------------------------- *)

(* 4 domains × many iterations over 32 overlapping keys, with a compute
   slow enough to open the duplicate-compilation race window.  Every
   call must return its own key's value, the table must hold exactly
   one entry per key (no duplicate-insert corruption), and the stats
   must balance. *)
let test_domain_hammer () =
  let c = Prs_cache.create () in
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
  Util.check_bool "at least one compute per key" true
    (s.Prs_cache.misses >= n_keys)

(* --- shared Tset context across domains ------------------------------ *)

(* Verdict equality: membership verdicts computed by 4 domains sharing
   ONE context (one cache, overlapping regex keys compiled
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

(* The product walk on ONE context shared by 4 domains: the nodes'
   successor rows are written without a lock, so racing domains must
   still agree with a serial context on every verdict and witness of
   the 56 ordered paper pairs, and intern exactly the serial set of
   states, composites and events. *)
let test_shared_ctx_walks () =
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a == b then None else Some (a, b))
          Ex.all_specs)
      Ex.all_specs
  in
  Util.check_int "56 ordered pairs" 56 (List.length pairs);
  (* twice over, so domains meet filled rows as well as empty ones *)
  let work = pairs @ pairs in
  let run ctx (a, b) = Posl_core.Refine.verdict ctx a b in
  let serial = Tset.ctx Util.paper_universe in
  let expected = List.map (run serial) work in
  let shared = Tset.ctx Util.paper_universe in
  let got = Par.map_dyn ~domains:4 (run shared) work in
  Util.check_bool "serial ≡ 4-domain shared-context verdicts and witnesses"
    true
    (List.for_all2 Posl_verdict.Verdict.equal expected got);
  Util.check_bool "the same states, composites and events interned" true
    (Tset.intern_counts serial = Tset.intern_counts shared)

(* The same walks while the context's node registry loses entries:
   4 domains each re-parse paper.oun and walk all 56 ordered pairs of
   their fresh parse on ONE shared context, while a fifth domain forces
   major collections, so the nodes of earlier parses are dropped from
   the registry while other domains look theirs up and mint new ones.
   Every verdict and witness must equal a serial context's, and the
   shared context must intern exactly the serial set of states,
   composites and events. *)
let test_gc_race_walks () =
  let reparse = Util.reparse "paper.oun" in
  let parse () = Array.of_list (reparse ()) in
  let first = parse () in
  let idx = List.init (Array.length first) Fun.id in
  let pairs =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if i = j then None else Some (i, j)) idx)
      idx
  in
  Util.check_int "56 ordered pairs" 56 (List.length pairs);
  let walk ctx specs =
    List.map (fun (i, j) -> Posl_core.Refine.verdict ctx specs.(i) specs.(j)) pairs
  in
  let universe = Spec.adequate_universe (Array.to_list first) in
  let serial = Tset.ctx universe in
  let expected = walk serial first in
  let shared = Tset.ctx universe in
  let stop = Atomic.make false and collections = Atomic.make 0 in
  let collector =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Gc.major ();
          Atomic.incr collections
        done)
  in
  let agreed =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join collector)
      (fun () ->
        Par.map_dyn ~domains:4
          (fun _ ->
            List.for_all2 Posl_verdict.Verdict.equal expected
              (walk shared (parse ())))
          (List.init 24 Fun.id))
  in
  Util.check_bool "serial ≡ re-parsed walks under forced collections" true
    (List.for_all Fun.id agreed);
  Util.check_bool "collections ran during the walks" true
    (Atomic.get collections > 0);
  Util.check_bool "the same states, composites and events interned" true
    (Tset.intern_counts serial = Tset.intern_counts shared)

(* --- qcheck: regex keys ----------------------------------------------- *)

let sc = Gen.default_scenario

(* Regex keys drawn over the scenario's concrete events, with
   structural duplicates among them. *)
let regex_keys_gen =
  let events =
    Posl_sets.Eventset.sample sc.Gen.universe Posl_sets.Eventset.full
  in
  G.list_size (G.int_range 2 12) (Gen.regex_within ~max_depth:3 sc events)

let qsuite =
  [
    Util.qtest ~count:60
      "prs_cache: colliding regex keys never conflate"
      regex_keys_gen
      (fun keys ->
        let c = Prs_cache.create () in
        List.for_all
          (fun k ->
            Stdlib.compare (Prs_cache.find_or_compute c k (fun () -> k)) k = 0)
          keys
        && Prs_cache.length c
           = List.length (List.sort_uniq Stdlib.compare keys));
    Util.qtest ~count:60
      "prs_cache: a repeated key gets its first value back"
      (G.pair regex_keys_gen regex_keys_gen)
      (fun (ks1, ks2) ->
        let c = Prs_cache.create () in
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
    Alcotest.test_case "4-domain hammer, overlapping keys" `Slow
      test_domain_hammer;
    Alcotest.test_case "serial ≡ shared-context verdicts (4 domains)" `Slow
      test_shared_ctx_verdicts;
    Alcotest.test_case "serial ≡ shared-context walks (4 domains)" `Slow
      test_shared_ctx_walks;
    Alcotest.test_case "serial ≡ re-parsed walks under forced GC (4 domains)"
      `Slow test_gc_race_walks;
  ]
  @ qsuite
