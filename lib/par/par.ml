(* The process's one worker pool, on stock [Domain]s (no domainslib
   in the build environment). *)

(* One domain unless asked: on a 2-vCPU host a second one made every
   batch measured slower, and a run's domain count should not depend on
   the host. *)
let default_domains () =
  match Option.bind (Sys.getenv_opt "POSL_DOMAINS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 1

type 'a pool = {
  run : 'a -> unit;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  max_queue : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

type outcome = Accepted | Overloaded | Stopped

(* The one worker loop: run the oldest item, wait while the queue is
   empty, return once it is empty and the pool is stopping. *)
let rec work t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.lock
  done;
  let item = Queue.take_opt t.queue in
  Mutex.unlock t.lock;
  match item with
  | None -> ()
  | Some x ->
      (try t.run x with _ -> ());
      work t

let pool ~workers ~max_queue run =
  let t =
    {
      run;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      max_queue;
      stopping = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (max 0 workers) (fun _ -> Domain.spawn (fun () -> work t));
  t

let submit_all t items =
  Mutex.protect t.lock @@ fun () ->
  if t.stopping then Stopped
  else if Queue.length t.queue + List.length items > t.max_queue then Overloaded
  else begin
    List.iter (fun x -> Queue.push x t.queue) items;
    (match items with
    | [ _ ] -> Condition.signal t.nonempty
    | _ -> Condition.broadcast t.nonempty);
    Accepted
  end

let depth t = Mutex.protect t.lock (fun () -> Queue.length t.queue)

let drain t =
  let workers =
    Mutex.protect t.lock @@ fun () ->
    t.stopping <- true;
    Condition.broadcast t.nonempty;
    let ws = t.workers in
    t.workers <- [];
    ws
  in
  work t;
  List.iter Domain.join workers

(* An item is skipped only when an earlier one has failed, and the
   queue is FIFO, so every item up to the earliest failing one runs:
   the exception re-raised is that item's, whatever the timing, and no
   skipped item is read. *)
let map_dyn ?domains f xs =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let n = List.length xs in
  if domains <= 1 || n < 2 * domains then List.map f xs
  else begin
    let results = Array.make n None in
    let first_failure = Atomic.make n in
    let rec lower i =
      let k = Atomic.get first_failure in
      if i < k && not (Atomic.compare_and_set first_failure k i) then lower i
    in
    let t =
      pool ~workers:(domains - 1) ~max_queue:n (fun (i, x) ->
          if i < Atomic.get first_failure then
            match f x with
            | y -> results.(i) <- Some (Ok y)
            | exception e ->
                results.(i) <- Some (Error e);
                lower i)
    in
    ignore (submit_all t (List.mapi (fun i x -> (i, x)) xs));
    drain t;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok y) -> y
        | Some (Error e) -> raise e
        | None -> assert false)
  end
