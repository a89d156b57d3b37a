(** The bounded store behind {!Tracer}, {!Audit} and {!Irdiff}: a
    mutexed ring of the last [capacity] items (oldest evicted), each
    stamped with a 0-based sequence number that is never reused, plus an
    optional JSON-lines file sink that can rotate by size.

    One lock covers everything an append touches — the seq, the slot,
    whatever state the item builder maintains, the sink write and the
    rotation — and every reader takes the same lock, so helper compile
    domains and the main thread can append and read concurrently. *)

type 'a t

(** [create ~capacity] — ring of at most [capacity] (min 1) items. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** [push t make] appends [make seq], where [seq] is the next sequence
    number, evicting the oldest item when full, and mirrors it to the
    sink. [make] runs under the ring's lock, so state it updates (an
    owner's cumulative aggregates) stays atomic with the append; it must
    neither raise nor call back into [t]. Returns the item as stored. *)
val push : 'a t -> (int -> 'a) -> 'a

(** [locked t f] runs [f ~total ~rotations] under the ring's lock: for
    owners whose own state (updated in [push]'s builder) must be read
    consistently with the counters. [f] must not call back into [t]. *)
val locked : 'a t -> (total:int -> rotations:int -> 'b) -> 'b

(** Items ever pushed (≥ [List.length (to_list t)]); the next seq. *)
val total : 'a t -> int

(** Retained items, oldest first. *)
val to_list : 'a t -> 'a list

(** Retained items with [seq >= from], oldest first. *)
val since : 'a t -> int -> 'a list

(** The newest retained item satisfying the predicate, if any. *)
val find : 'a t -> ('a -> bool) -> 'a option

(** [set_file_sink t ?max_bytes encode path] opens (truncates) [path],
    closing any previous sink, and writes [encode item] plus a newline
    for every subsequent push, flushed. With [max_bytes], the sink
    rotates once the live file has reached that size: [path] moves to
    [path ^ ".1"] (clobbering the previous generation) and reopens
    fresh. A rotation whose rename fails is not one: the live file stays
    open and keeps growing, and {!rotations} does not count it, so no
    evidence is truncated. *)
val set_file_sink : 'a t -> ?max_bytes:int -> ('a -> string) -> string -> unit

(** Rotations performed so far. *)
val rotations : 'a t -> int

(** Flush and close the sink, if any. Further pushes only hit the ring. *)
val close_sink : 'a t -> unit
