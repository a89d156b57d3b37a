type 'a sink = {
  path : string;
  encode : 'a -> string;
  max_bytes : int option;
  mutable oc : out_channel;
  mutable bytes : int;  (* written to the live file *)
}

(* The item with seq [s] lives in slot [s mod capacity]. [slots] is
   allocated on the first push, filled with that item, so no slot is
   ever an option. *)
type 'a t = {
  capacity : int;
  mutable slots : 'a array;
  mutable total : int;
  mutable sink : 'a sink option;
  mutable rotations : int;
  mu : Mutex.t;
}

let create ~capacity =
  {
    capacity = max 1 capacity;
    slots = [||];
    total = 0;
    sink = None;
    rotations = 0;
    mu = Mutex.create ();
  }

let capacity t = t.capacity

(* Checked after each write, so one oversized item still lands whole.
   Called with [t.mu] held. *)
let maybe_rotate t s =
  match s.max_bytes with
  | Some cap when s.bytes >= cap -> (
    match Sys.rename s.path (s.path ^ ".1") with
    | () ->
      let oc = open_out s.path in
      close_out s.oc;
      s.oc <- oc;
      s.bytes <- 0;
      t.rotations <- t.rotations + 1
    | exception Sys_error _ -> ())
  | _ -> ()

let write t s item =
  let line = s.encode item in
  output_string s.oc line;
  output_char s.oc '\n';
  flush s.oc;
  s.bytes <- s.bytes + String.length line + 1;
  maybe_rotate t s

(* The lock is taken by hand, without [Mutex.protect] or a handler
   around the builder: this is the hot path of every traced span. A
   failed sink write still releases the lock. *)
let push t make =
  Mutex.lock t.mu;
  let item = make t.total in
  if t.total = 0 then t.slots <- Array.make t.capacity item
  else t.slots.(t.total mod t.capacity) <- item;
  t.total <- t.total + 1;
  (match t.sink with
  | None -> ()
  | Some s -> (
    try write t s item
    with e ->
      Mutex.unlock t.mu;
      raise e));
  Mutex.unlock t.mu;
  item

let locked t f = Mutex.protect t.mu (fun () -> f ~total:t.total ~rotations:t.rotations)

let total t = locked t (fun ~total ~rotations:_ -> total)
let rotations t = locked t (fun ~total:_ ~rotations -> rotations)

(* Retained items with seq in [from, total), oldest first. Lock held. *)
let range t from =
  let first = max from (max 0 (t.total - t.capacity)) in
  List.init (max 0 (t.total - first)) (fun i -> t.slots.((first + i) mod t.capacity))

let to_list t = Mutex.protect t.mu (fun () -> range t 0)
let since t from = Mutex.protect t.mu (fun () -> range t from)
let find t p = List.find_opt p (List.rev (to_list t))

let close_locked t = Option.iter (fun s -> close_out s.oc) t.sink

let set_file_sink t ?max_bytes encode path =
  Mutex.protect t.mu (fun () ->
      let oc = open_out path in
      close_locked t;
      t.sink <- Some { path; encode; max_bytes; oc; bytes = 0 })

let close_sink t =
  Mutex.protect t.mu (fun () ->
      close_locked t;
      t.sink <- None)
