(* Process-wide metrics registry: counters, gauges, and log-scale
   latency histograms with Prometheus-style text exposition.

   All mutation is atomic and lock-free; the registry mutex only guards
   get-or-create and enumeration.  Histograms use fixed logarithmic
   buckets (factor sqrt 2 per bucket, ~1 microsecond to ~12 minutes in
   milliseconds) so percentile estimates are within a factor of sqrt 2
   of the true value at any load, with O(1) memory per histogram. *)

type counter = { c_name : string; c_help : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_v : float Atomic.t }

let n_bounds = 60
let lowest_bound = 1e-3 (* milliseconds: first bucket <= 1us *)

let bounds =
  Array.init n_bounds (fun i -> lowest_bound *. (sqrt 2. ** float_of_int i))

type histogram = {
  h_name : string;
  h_help : string;
  h_buckets : int Atomic.t array;  (* n_bounds + 1: last is +Inf *)
  h_sum : float Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram
type registry = { mu : Mutex.t; mutable items : metric list (* newest first *) }

let create () = { mu = Mutex.create (); items = [] }
let default = create ()
let metric_name = function C c -> c.c_name | G g -> g.g_name | H h -> h.h_name

let find_or_add reg name (build : unit -> metric) (extract : metric -> 'a option)
    : 'a =
  Mutex.lock reg.mu;
  let found =
    match List.find_opt (fun m -> metric_name m = name) reg.items with
    | Some m -> Some (extract m)
    | None ->
        let m = build () in
        reg.items <- m :: reg.items;
        Some (extract m)
  in
  Mutex.unlock reg.mu;
  match found with
  | Some (Some x) -> x
  | _ -> invalid_arg ("Metrics: " ^ name ^ " already registered with another type")

let counter ?(registry = default) ?(help = "") name =
  find_or_add registry name
    (fun () -> C { c_name = name; c_help = help; c_v = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let incr c = Atomic.incr c.c_v
let add c n = ignore (Atomic.fetch_and_add c.c_v n)
let value c = Atomic.get c.c_v

let gauge ?(registry = default) ?(help = "") name =
  find_or_add registry name
    (fun () -> G { g_name = name; g_help = help; g_v = Atomic.make 0. })
    (function G g -> Some g | _ -> None)

let set g v = Atomic.set g.g_v v
let gauge_value g = Atomic.get g.g_v

let histogram ?(registry = default) ?(help = "") name =
  find_or_add registry name
    (fun () ->
      H
        { h_name = name; h_help = help;
          h_buckets = Array.init (n_bounds + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0. })
    (function H h -> Some h | _ -> None)

let rec atomic_add_float a x =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (v +. x)) then atomic_add_float a x

let bucket_index v =
  let rec find i = if i >= n_bounds || v <= bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  Atomic.incr h.h_buckets.(bucket_index v);
  atomic_add_float h.h_sum v

let count h =
  Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.h_buckets

let sum h = Atomic.get h.h_sum

let percentile h p =
  let total = count h in
  if total = 0 then 0.
  else begin
    let rank = Float.max 1. (p /. 100. *. float_of_int total) in
    let rec walk i cum =
      let n = Atomic.get h.h_buckets.(i) in
      let cum' = cum + n in
      if float_of_int cum' >= rank || i = n_bounds then begin
        (* interpolate within the bucket; +Inf collapses to its floor *)
        let lo = if i = 0 then 0. else bounds.(i - 1) in
        let hi = if i >= n_bounds then bounds.(n_bounds - 1) else bounds.(i) in
        if n = 0 then hi
        else
          let frac = (rank -. float_of_int cum) /. float_of_int n in
          lo +. (Float.min 1. (Float.max 0. frac) *. (hi -. lo))
      end
      else walk (i + 1) cum'
    in
    walk 0 0
  end

(* --- Prometheus text exposition ------------------------------------ *)

(* Prometheus text-format escaping: HELP text escapes backslash and
   newline; label values additionally escape the double quote. *)
let add_escaped_help b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let add_escaped_label b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let add_header b name help kind =
  if help <> "" then (
    Buffer.add_string b "# HELP ";
    Buffer.add_string b name;
    Buffer.add_char b ' ';
    add_escaped_help b help;
    Buffer.add_char b '\n');
  Buffer.add_string b "# TYPE ";
  Buffer.add_string b name;
  Buffer.add_char b ' ';
  Buffer.add_string b kind;
  Buffer.add_char b '\n'

let expose ?(registry = default) () =
  Mutex.lock registry.mu;
  let items = List.rev registry.items in
  Mutex.unlock registry.mu;
  let b = Buffer.create 2048 in
  List.iter
    (fun m ->
      match m with
      | C c ->
          add_header b c.c_name c.c_help "counter";
          Buffer.add_string b
            (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_v))
      | G g ->
          add_header b g.g_name g.g_help "gauge";
          Buffer.add_string b
            (Printf.sprintf "%s %g\n" g.g_name (Atomic.get g.g_v))
      | H h ->
          add_header b h.h_name h.h_help "histogram";
          let total = count h in
          let cum = ref 0 in
          let emitted_all = ref false in
          Array.iteri
            (fun i bkt ->
              if i < n_bounds && not !emitted_all then begin
                cum := !cum + Atomic.get bkt;
                (* skip the all-zero prefix, stop once every sample is
                   accounted for: keeps the exposition readable *)
                if !cum > 0 then begin
                  Buffer.add_string b h.h_name;
                  Buffer.add_string b "_bucket{le=\"";
                  add_escaped_label b (Printf.sprintf "%.6g" bounds.(i));
                  Buffer.add_string b (Printf.sprintf "\"} %d\n" !cum)
                end;
                if !cum = total then emitted_all := true
              end)
            h.h_buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" h.h_name total);
          Buffer.add_string b
            (Printf.sprintf "%s_sum %g\n" h.h_name (Atomic.get h.h_sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count %d\n" h.h_name total))
    items;
  Buffer.contents b

