module Json = Posl_verdict.Verdict.Json
module Telemetry = Posl_telemetry.Telemetry

type mode = Closed | Open of float

type cfg = { requests : int; clients : int; repeat : float; mode : mode; seed : int }

type report = {
  requests : int;
  answered : int;
  failed : int;
  rejected : int;
  expired : int;
  errors : int;
  cached : int;
  wall_ms : float;
  qps : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  clients : int;
  repeat : float;
  mode : string;
  slowest : (string * float) list;
}

(* How many of the slowest answered requests keep their trace id in the
   report — enough to chase every outlier percentile into the server's
   trace export without remembering all N requests. *)
let n_slowest = 5

type tally = {
  lock : Mutex.t;
  mutable latencies : float list;  (* every answered submission, ms *)
  mutable answered : int;
  mutable failed : int;
  mutable rejected : int;
  mutable expired : int;
  mutable errors : int;
  mutable cached : int;
  mutable slowest : (string * float) list;  (* slowest first, <= n_slowest *)
}

let int_field fields name =
  match List.assoc_opt name fields with Some (Json.Int i) -> i | _ -> 0

let count_cached fields =
  match List.assoc_opt "results" fields with
  | Some (Json.List rs) ->
      List.fold_left
        (fun acc r ->
          match r with
          | Json.Obj f when List.assoc_opt "cached" f = Some (Json.Bool true) ->
              acc + 1
          | _ -> acc)
        0 rs
  | _ -> 0

let note_slow t trace_id ms =
  let merged =
    List.merge
      (fun (_, a) (_, b) -> compare b a)
      [ (trace_id, ms) ] t.slowest
  in
  t.slowest <- List.filteri (fun i _ -> i < n_slowest) merged

let record t outcome ~trace_id ms =
  Mutex.lock t.lock;
  (match outcome with
  | `Answered (failed, expired, cached) ->
      t.answered <- t.answered + 1;
      t.failed <- t.failed + failed;
      t.expired <- t.expired + expired;
      t.cached <- t.cached + cached;
      t.latencies <- ms :: t.latencies;
      note_slow t trace_id ms
  | `Rejected -> t.rejected <- t.rejected + 1
  | `Error -> t.errors <- t.errors + 1);
  Mutex.unlock t.lock

let classify doc =
  match doc with
  | Json.Obj fields -> (
      match List.assoc_opt "ok" fields with
      | Some (Json.Bool true) ->
          `Answered
            ( int_field fields "failed",
              int_field fields "expired",
              count_cached fields )
      | _ -> (
          match List.assoc_opt "error" fields with
          | Some (Json.Obj ef)
            when List.assoc_opt "code" ef = Some (Json.Str "overloaded") ->
              `Rejected
          | _ -> `Error))
  | _ -> `Error

(* [client] is the 0-based client index: seeding the per-client RNG
   from (seed, index) — never from a thread id, which varies run to
   run — makes a campaign's draw sequence a pure function of its cfg,
   so --seed reproduces the workload exactly. *)
let client_loop t conn pool ~(cfg : cfg) ~client ~next ~fresh ~start_ns =
  let npool = Array.length pool in
  let rng = Random.State.make [| cfg.seed; client |] in
  let rec loop () =
    let k = Atomic.fetch_and_add next 1 in
    if k < cfg.requests then begin
      (match cfg.mode with
      | Closed -> ()
      | Open rate ->
          let due_ns = start_ns + int_of_float (float_of_int k /. rate *. 1e9) in
          let wait = float_of_int (due_ns - Telemetry.now_ns ()) /. 1e9 in
          if wait > 0. then Thread.delay wait);
      let idx =
        if Random.State.float rng 1.0 < cfg.repeat then
          Random.State.int rng npool
        else Atomic.fetch_and_add fresh 1 mod npool
      in
      (* tag every submission so a slow percentile traces back to its
         exact span tree in the server's trace export *)
      let trace_id = Printf.sprintf "lg%d-%d" cfg.seed k in
      let doc =
        Wire.request_json
          (Wire.Submit { pool.(idx) with Wire.trace_id = Some trace_id })
      in
      let t0 = Telemetry.now_ns () in
      (match Client.call conn doc with
      | Ok doc ->
          record t (classify doc) ~trace_id
            (float_of_int (Telemetry.now_ns () - t0) /. 1e6)
      | Error _ -> record t `Error ~trace_id 0.);
      loop ()
    end
  in
  loop ()

let mode_name = function
  | Closed -> "closed"
  | Open rate -> Printf.sprintf "open@%g" rate

let run addr ~pool (cfg : cfg) =
  if pool = [] then Error "loadgen: empty submission pool"
  else if cfg.clients < 1 then Error "loadgen: need at least one client"
  else begin
    let pool = Array.of_list pool in
    match
      (* connect everyone before the clock starts, failing fast *)
      let conns = ref [] in
      try
        for _ = 1 to cfg.clients do
          conns := Client.connect addr :: !conns
        done;
        Ok !conns
      with Unix.Unix_error (e, fn, _) ->
        List.iter Client.close !conns;
        Error (Printf.sprintf "loadgen: connect failed: %s (%s)"
                 (Unix.error_message e) fn)
    with
    | Error _ as e -> e
    | Ok conns ->
        let t =
          { lock = Mutex.create (); latencies = []; answered = 0; failed = 0;
            rejected = 0; expired = 0; errors = 0; cached = 0; slowest = [] }
        in
        let next = Atomic.make 0 and fresh = Atomic.make 0 in
        let start_ns = Telemetry.now_ns () in
        let threads =
          List.mapi
            (fun client conn ->
              Thread.create
                (fun () ->
                  client_loop t conn pool ~cfg ~client ~next ~fresh ~start_ns)
                ())
            conns
        in
        List.iter Thread.join threads;
        let wall_ms =
          float_of_int (Telemetry.now_ns () - start_ns) /. 1e6
        in
        List.iter Client.close conns;
        let sorted = Array.of_list t.latencies in
        Array.sort Float.compare sorted;
        let n = Array.length sorted in
        (* nearest rank, as perfbench reports them: a percentile is
           always one of the samples, so p99 never exceeds the max *)
        let pct p =
          if n = 0 then 0.
          else
            let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
            sorted.(max 1 k - 1)
        in
        Ok
          {
            requests = cfg.requests;
            answered = t.answered;
            failed = t.failed;
            rejected = t.rejected;
            expired = t.expired;
            errors = t.errors;
            cached = t.cached;
            wall_ms;
            qps =
              (if wall_ms > 0. then float_of_int t.answered /. (wall_ms /. 1e3)
               else 0.);
            p50_ms = pct 50.;
            p90_ms = pct 90.;
            p99_ms = pct 99.;
            mean_ms =
              (if n = 0 then 0.
               else Array.fold_left ( +. ) 0. sorted /. float_of_int n);
            max_ms = (if n = 0 then 0. else sorted.(n - 1));
            clients = cfg.clients;
            repeat = cfg.repeat;
            mode = mode_name cfg.mode;
            slowest = t.slowest;
          }
  end

let json_of_report r =
  Json.Obj
    [
      ("requests", Json.Int r.requests);
      ("answered", Json.Int r.answered);
      ("failed", Json.Int r.failed);
      ("rejected", Json.Int r.rejected);
      ("expired", Json.Int r.expired);
      ("errors", Json.Int r.errors);
      ("cached", Json.Int r.cached);
      ("wall_ms", Json.Float r.wall_ms);
      ("qps", Json.Float r.qps);
      ("p50_ms", Json.Float r.p50_ms);
      ("p90_ms", Json.Float r.p90_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("mean_ms", Json.Float r.mean_ms);
      ("max_ms", Json.Float r.max_ms);
      ("clients", Json.Int r.clients);
      ("repeat", Json.Float r.repeat);
      ("mode", Json.Str r.mode);
      ( "slowest",
        Json.List
          (List.map
             (fun (trace_id, ms) ->
               Json.Obj
                 [ ("trace_id", Json.Str trace_id); ("ms", Json.Float ms) ])
             r.slowest) );
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d requests, %d clients, %s arrival, repeat %.2f@,\
     answered %d  rejected %d  expired %d  errors %d  failed %d  cached %d@,\
     wall %.1f ms  throughput %.1f q/s@,\
     latency p50 %.2f ms  p90 %.2f ms  p99 %.2f ms  mean %.2f ms  max %.2f ms@]"
    r.requests r.clients r.mode r.repeat r.answered r.rejected r.expired
    r.errors r.failed r.cached r.wall_ms r.qps r.p50_ms r.p90_ms r.p99_ms
    r.mean_ms r.max_ms;
  match r.slowest with
  | [] -> ()
  | slowest ->
      Format.fprintf ppf "@,@[<v>slowest (trace ids for --trace lookup):";
      List.iter
        (fun (trace_id, ms) ->
          Format.fprintf ppf "@,  %s  %.2f ms" trace_id ms)
        slowest;
      Format.fprintf ppf "@]"
