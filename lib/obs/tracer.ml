type kind =
  | Span
  | Point

type event = {
  seq : int;
  ts : float;
  id : int;
  parent : int option;
  kind : kind;
  name : string;
  dur : float;
  depth : int;
  fields : (string * Jsonx.t) list;
}

(* Events and the file sink live in one {!Ring}, whose lock serializes
   helper compile domains recording spans concurrently with the main
   thread.

   Correlation state is split in two:
   - ids come from a process-wide atomic, so an id handed out by one
     tracer (or captured on the main thread and carried into a helper
     domain) can never collide with an id allocated anywhere else;
   - the open-span stack lives in domain-local storage, so nesting —
     and therefore default parents and depths — is exact per domain
     even when several domains record into one tracer concurrently.
     Cross-domain edges are explicit: the enqueuing side allocates an
     anchor id and the helper passes it as [?parent]. *)
type t = {
  ring : event Ring.t;
  clock : unit -> float;
  start : float;
}

(* Seeded from the pid so span ids are unique across *processes* too:
   fleet trace files from an engine and a jitbulld can be merged without
   id collisions, and cross-process parent links (Propagate) stay
   unambiguous. 24 pid bits above a 32-bit counter keeps every id below
   2^56, so it round-trips through traceparent's 16-hex encoding and
   OCaml's int alike. *)
let next_id = Atomic.make (((Unix.getpid () land 0xFFFFFF) lsl 32) lor 1)

let alloc_id (_ : t) = Atomic.fetch_and_add next_id 1

(* Per-domain stack of open span ids, innermost first. *)
let context_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get context_key

let current_span (_ : t) =
  match !(stack ()) with [] -> None | id :: _ -> Some id

let create ?(capacity = 4096) ?(clock : (unit -> float) option) () =
  let clock = match clock with Some c -> c | None -> Clock.now in
  { ring = Ring.create ~capacity; clock; start = clock () }

let now t = t.clock () -. t.start
let depth (_ : t) = List.length !(stack ())

let kind_to_string = function Span -> "span" | Point -> "event"

let kind_of_string = function
  | "span" -> Span
  | "event" -> Point
  | s -> raise (Jsonx.Parse_error ("unknown event kind " ^ s))

let event_to_json e =
  Jsonx.Assoc
    [
      ("seq", Jsonx.Int e.seq);
      ("ts", Jsonx.Float e.ts);
      ("id", Jsonx.Int e.id);
      ("parent", (match e.parent with Some p -> Jsonx.Int p | None -> Jsonx.Null));
      ("kind", Jsonx.String (kind_to_string e.kind));
      ("name", Jsonx.String e.name);
      ("dur", Jsonx.Float e.dur);
      ("depth", Jsonx.Int e.depth);
      ("fields", Jsonx.Assoc e.fields);
    ]

let event_of_json j =
  let fields =
    match Jsonx.member "fields" j with
    | Jsonx.Assoc fs -> fs
    | Jsonx.Null -> []
    | _ -> raise (Jsonx.Parse_error "event fields must be an object")
  in
  {
    seq = Jsonx.to_int (Jsonx.member "seq" j);
    ts = Jsonx.to_float (Jsonx.member "ts" j);
    (* pre-correlation traces carry neither field: id 0 is never allocated *)
    id = (match Jsonx.member "id" j with Jsonx.Null -> 0 | v -> Jsonx.to_int v);
    parent =
      (match Jsonx.member "parent" j with
      | Jsonx.Null -> None
      | v -> Some (Jsonx.to_int v));
    kind = kind_of_string (Jsonx.to_str (Jsonx.member "kind" j));
    name = Jsonx.to_str (Jsonx.member "name" j);
    dur = Jsonx.to_float (Jsonx.member "dur" j);
    depth = Jsonx.to_int (Jsonx.member "depth" j);
    fields;
  }

let record t ?ts ?id ?parent ?depth:d ?(kind = Point) ?(dur = 0.0) ?(fields = []) name =
  let ts = match ts with Some x -> x | None -> now t in
  let id = match id with Some i -> i | None -> alloc_id t in
  let parent = match parent with Some _ -> parent | None -> current_span t in
  let depth = match d with Some d -> d | None -> depth t in
  ignore
    (Ring.push t.ring (fun seq -> { seq; ts; id; parent; kind; name; dur; depth; fields })
      : event);
  id

let event t ?fields ?id ?parent name = ignore (record t ?fields ?id ?parent name)

let with_span t ?(fields = []) ?fields_of ?parent ?on_close name f =
  let t0 = now t in
  let id = alloc_id t in
  let parent = match parent with Some _ -> parent | None -> current_span t in
  let st = stack () in
  st := id :: !st;
  let span_depth = List.length !st in
  let finish extra =
    let dur = Float.max 0.0 (now t -. t0) in
    (match !st with
    | top :: rest when top = id -> st := rest
    | other ->
      (* unbalanced nesting (an exception tore through a sibling span):
         drop down to below our frame rather than corrupting the stack *)
      st := (match List.find_index (Int.equal id) other with
            | Some i -> List.filteri (fun j _ -> j > i) other
            | None -> other));
    ignore
      (record t ~ts:t0 ~id ?parent ~depth:span_depth ~kind:Span ~dur
         ~fields:(fields @ extra) name);
    match on_close with Some g -> g dur | None -> ()
  in
  match f () with
  | v ->
    let extra = match fields_of with Some g -> g v | None -> [] in
    finish extra;
    v
  | exception e ->
    finish [ ("error", Jsonx.String (Printexc.to_string e)) ];
    raise e

let events t = Ring.to_list t.ring
let total_recorded t = Ring.total t.ring

let set_file_sink t path =
  Ring.set_file_sink t.ring (fun e -> Jsonx.to_string (event_to_json e)) path

let close t = Ring.close_sink t.ring
