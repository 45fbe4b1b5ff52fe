(* Lock-striped concurrent memo cache: N mutex-guarded hash-table
   shards, stripe = Hashtbl.hash key land (stripes - 1).  The compute
   function of [find_or_compute] runs outside every lock; duplicated
   computation under a race is tolerated (first insert wins) because
   cached values are pure and interchangeable. *)

type ('k, 'v) shard = { lock : Mutex.t; table : ('k, 'v) Hashtbl.t }

type ('k, 'v) t = {
  mask : int;  (* stripes - 1, stripes a power of two *)
  shards : ('k, 'v) shard array;
  hits : int Atomic.t;
  misses : int Atomic.t;
  duplicates : int Atomic.t;
  contended : int Atomic.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(stripes = 16) () =
  let stripes = next_pow2 (max 1 stripes) in
  {
    mask = stripes - 1;
    shards =
      Array.init stripes (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 16 });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    duplicates = Atomic.make 0;
    contended = Atomic.make 0;
  }

let stripes t = t.mask + 1
let shard_of t k = t.shards.(Hashtbl.hash k land t.mask)

let contended_c =
  Posl_telemetry.Metrics.counter
    ~help:"Contended stripe-lock acquisitions in the DFA cache"
    "posl_engine_dfa_contended_total"

(* Uncontended acquisitions take the fast path; a failed try_lock is
   counted (here and in the process registry) before blocking, giving a
   (sampled) picture of stripe pressure. *)
let lock_shard t s =
  if not (Mutex.try_lock s.lock) then begin
    Atomic.incr t.contended;
    Posl_telemetry.Metrics.incr contended_c;
    Mutex.lock s.lock
  end

let locked t s f =
  lock_shard t s;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let find_opt t k =
  let s = shard_of t k in
  locked t s (fun () -> Hashtbl.find_opt s.table k)

let find_or_compute t k f =
  let s = shard_of t k in
  match locked t s (fun () -> Hashtbl.find_opt s.table k) with
  | Some v ->
      Atomic.incr t.hits;
      v
  | None ->
      (* Compute outside the lock: compilation can be slow, and holding
         the stripe would serialize unrelated keys that share it. *)
      let v = f () in
      Atomic.incr t.misses;
      locked t s (fun () ->
          match Hashtbl.find_opt s.table k with
          | Some winner ->
              Atomic.incr t.duplicates;
              winner
          | None ->
              Hashtbl.add s.table k v;
              v)

let length t =
  Array.fold_left
    (fun acc s -> acc + locked t s (fun () -> Hashtbl.length s.table))
    0 t.shards

let clear t =
  Array.iter (fun s -> locked t s (fun () -> Hashtbl.reset s.table)) t.shards

type stats = { hits : int; misses : int; duplicates : int; contended : int }

let stats (t : (_, _) t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    duplicates = Atomic.get t.duplicates;
    contended = Atomic.get t.contended;
  }

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d duplicates=%d contended=%d" s.hits
    s.misses s.duplicates s.contended
