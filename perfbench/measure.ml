(* Timing, order statistics, the per-layer span table and the result
   line shared by every workload. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Nearest-rank percentile of a sample (0 on an empty one). *)
let percentile samples p =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))
  end

let median samples = percentile samples 0.5

(* The OCaml heap's high-water mark, in MiB. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* Host speed. On a shared host the same code runs up to about 1.9x
   slower in some stretches than in others: a fixed CPU loop drifts that
   much within seconds, and that drift, not the program, dominated raw
   wall times. So every timed end-to-end figure is given in reference
   milliseconds: wall time divided by the host's slowdown, which a fixed
   calibration kernel measures in short slices interleaved with the work.
   The kernel is plain OCaml inside the benchmark and shares no code with
   the system, so a change to the system moves the work's time and not
   the kernel's. One slice is one reference millisecond of work. *)
module Host = struct
  let table = Array.init 65536 (fun i -> (i * 7919) land 0xFFFF)
  let slice_iters = 470_000

  (* Random reads over a 512 KiB table, integer arithmetic, a data-dependent
     branch and a few short-lived allocations: the engine's mix in
     miniature. Every call does the same work. *)
  let kernel () =
    let x = ref 0x2545F491 and acc = ref 1 and live = ref [] in
    for i = 1 to slice_iters do
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let v = Array.unsafe_get table (!x land 0xFFFF) in
      acc := if (v lxor !acc) land 1 = 0 then (!acc lsr 1) + v else (!acc * 3) + 1;
      if i land 63 = 0 then live := [ !acc; v ]
    done;
    Sys.opaque_identity (!acc + List.length !live)

  (* The slowdown one slice measures: its wall time over one reference
     millisecond. *)
  let slice () = snd (time kernel) /. 1e-3
end

(* Run operations [op 0] .. [op (n - 1)] in order and time each. With
   [host], calibration slices run before the first operation and after
   every [every]-th one and the last, and each operation's reference time
   is its wall time over the mean slowdown of the two slices that bracket
   it, so a slow stretch of the host is taken out where it happened.
   Returns each operation's (wall, reference) seconds; without [host]
   both are the wall time. *)
let run_ops ~host ?(every = 1) n op =
  let walls = Array.make n 0.0 in
  let before = ref (if host then Host.slice () else 1.0) and first = ref 0 in
  let close i =
    let after = if host then Host.slice () else 1.0 in
    let f = (!before +. after) /. 2.0 in
    let out =
      Array.init (i + 1 - !first) (fun k -> (walls.(!first + k), walls.(!first + k) /. f))
    in
    before := after;
    first := i + 1;
    out
  in
  Array.concat
    (List.init n (fun i ->
         let (), dt = time (fun () -> op i) in
         walls.(i) <- dt;
         if (i + 1) mod every = 0 || i = n - 1 then close i else [||]))

(* Run [prepare] [reps] times and keep the last result ([discard]
   releases the others). The set-up time is in reference seconds (each
   repetition's wall time over the slowdown of the calibration slices
   around it) and is the median of the repetitions, so one slow
   repetition (a major GC, a noisy neighbour) does not move it. *)
let repeat_setup ?(discard = ignore) ~reps prepare =
  let rec go k acc =
    Gc.compact ();
    let r = ref None in
    let dt = snd (run_ops ~host:true 1 (fun _ -> r := Some (prepare ()))).(0) in
    let r = Option.get !r in
    if k <= 1 then (r, median (dt :: acc))
    else begin
      discard r;
      go (k - 1) (dt :: acc)
    end
  in
  go reps []

(* Per-layer spans: the benchmark's own timers around calls into each
   module's public functions. When tracing is off every call is a direct
   call of the body and nothing is recorded. *)
module Layers = struct
  type t = { on : bool; tbl : (string, float ref) Hashtbl.t }

  let create ~on = { on; tbl = Hashtbl.create 64 }
  let on t = t.on

  let add t name v =
    if t.on then
      match Hashtbl.find_opt t.tbl name with
      | Some r -> r := !r +. v
      | None -> Hashtbl.add t.tbl name (ref v)

  let count t name = add t name 1.0

  let span t name f =
    if not t.on then f ()
    else begin
      let t0 = now () in
      match f () with
      | r ->
        add t name (now () -. t0);
        r
      | exception e ->
        add t name (now () -. t0);
        raise e
    end

  let get t name = match Hashtbl.find_opt t.tbl name with Some r -> !r | None -> 0.0
end

type metric = { name : string; unit_ : string; value : float }

(* One workload run's outcome. [wrong] counts oracle violations (a wrong
   program output, an exploit that was not neutralized, a verdict that
   differs from the reference); [failed] counts every failed operation,
   the oracle violations included. *)
type result = {
  attempted : int;
  failed : int;
  wrong : int;
  metrics : metric list;
}

let metric name unit_ value = { name; unit_; value }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_json r =
  let m =
    List.map
      (fun m ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (json_number m.value)
          m.unit_)
      r.metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (r.wrong = 0) r.attempted r.failed (String.concat ", " m)
