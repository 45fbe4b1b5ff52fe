(* One mutex-guarded hash table; the counters are read and written under
   the same lock.  The compute function of [find_or_compute] runs
   outside it; duplicated computation under a race is tolerated (first
   insert wins) because cached values are pure and interchangeable. *)

type ('k, 'v) t = {
  lock : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { lock = Mutex.create (); table = Hashtbl.create 16; hits = 0; misses = 0 }

let find_or_compute t k f =
  let found =
    Mutex.protect t.lock @@ fun () ->
    let v = Hashtbl.find_opt t.table k in
    if Option.is_some v then t.hits <- t.hits + 1;
    v
  in
  match found with
  | Some v -> v
  | None -> (
      (* Compute outside the lock: compilation can be slow, and holding
         the lock would serialize unrelated keys. *)
      let v = f () in
      Mutex.protect t.lock @@ fun () ->
      t.misses <- t.misses + 1;
      match Hashtbl.find_opt t.table k with
      | Some winner -> winner
      | None ->
          Hashtbl.add t.table k v;
          v)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)

type stats = { hits : int; misses : int }

let stats (t : (_, _) t) =
  Mutex.protect t.lock (fun () -> { hits = t.hits; misses = t.misses })
