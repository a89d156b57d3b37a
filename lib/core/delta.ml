module Sexpr = Jitbull_util.Sexpr
module Intern = Jitbull_util.Intern
module Snapshot = Jitbull_mir.Snapshot

type side = (Intern.id, int) Hashtbl.t

type t = {
  removed : side;
  added : side;
}

let key_of_ngram ng = String.concat "->" ng

(* ---- n = 3: packed-key counting over positional snapshots ----

   One routine, [count3], counts the n = 3 multiset for both
   [subchain_multiset ~n:3] and [trace3]. Its input is the positional
   form of a snapshot: each instruction's opcode as an index into a
   per-call opcode table, and its resolved operands as instruction
   positions. Sub-chains are packed into one int over those indices and
   counted as a sorted run-length array; only the keys a Δ keeps are
   mapped to {!Intern} ids. *)

(* Packed keys: three 20-bit opcode indices for "a->b->c"; a root
   boundary "^a->d" packs "a" and "d" under bit 60. *)
let bits = 20
let mask = (1 lsl bits) - 1
let rooted_tag = 1 lsl (3 * bits)

(* Per-call opcode table: each distinct opcode is interned once. The
   hash only reads the length and the first and last letters: cheaper
   than the generic one, and it spreads opcode names well enough. *)
module Opcode_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash s =
    let n = String.length s in
    if n = 0 then 0
    else (n * 961) + (Char.code (String.unsafe_get s 0) * 31) + Char.code (String.unsafe_get s (n - 1))
end)

type opcodes = {
  local : int Opcode_tbl.t;
  mutable ids : Intern.id array;  (* local index → interned opcode *)
}

let new_opcodes () = { local = Opcode_tbl.create 32; ids = Array.make 32 0 }

let opcode_index tbl op =
  match Opcode_tbl.find_opt tbl.local op with
  | Some i -> i
  | None ->
    let i = Opcode_tbl.length tbl.local in
    if i > mask then invalid_arg "Delta: too many opcodes for packed sub-chain keys";
    if i = Array.length tbl.ids then begin
      let bigger = Array.make (2 * i) 0 in
      Array.blit tbl.ids 0 bigger 0 i;
      tbl.ids <- bigger
    end;
    tbl.ids.(i) <- Intern.intern op;
    Opcode_tbl.add tbl.local op i;
    i

(* Instruction number → position: an open-addressing table reused across
   the snapshots of one call. A slot is live only while its stamp is the
   current one, so starting a snapshot clears the table in O(1). *)
type numbering = {
  mutable keys : int array;
  mutable vals : int array;
  mutable stamps : int array;
  mutable stamp : int;
}

let new_numbering () = { keys = [||]; vals = [||]; stamps = [||]; stamp = 0 }

let reset_numbering t m =
  if 2 * m > Array.length t.keys then begin
    let cap = ref 64 in
    while !cap < 2 * m do
      cap := 2 * !cap
    done;
    t.keys <- Array.make !cap 0;
    t.vals <- Array.make !cap 0;
    t.stamps <- Array.make !cap 0
  end;
  t.stamp <- t.stamp + 1

let slot t num =
  let mask = Array.length t.keys - 1 in
  let rec probe s =
    if t.stamps.(s) <> t.stamp || t.keys.(s) = num then s else probe ((s + 1) land mask)
  in
  probe (((num * 0x9E3779B1) lsr 7) land mask)

let bind t num i =
  let s = slot t num in
  t.stamps.(s) <- t.stamp;
  t.keys.(s) <- num;
  t.vals.(s) <- i

let position t num =
  let s = slot t num in
  if t.stamps.(s) = t.stamp then t.vals.(s) else -1

type positional = {
  ops : int array;  (* local opcode index per instruction *)
  first : int array;  (* operands of [i]: deps.(first.(i)) .. deps.(first.(i + 1) - 1) *)
  deps : int array;  (* operand positions, in operand order *)
}

(* Algorithm 1's graph in positional form. An operand naming no
   instruction is dropped (a repeated number resolves to its last
   instruction). No root flag is needed: a root's sub-chains all start at
   its operands, so "has operands and is nobody's operand" is decided in
   [count3] from [deps] alone. *)
let positional tbl pos_of_num (entries : Snapshot.entry list) =
  let m = List.length entries in
  reset_numbering pos_of_num m;
  let ops = Array.make m 0 and total = ref 0 in
  List.iteri
    (fun i (e : Snapshot.entry) ->
      bind pos_of_num e.Snapshot.num i;
      ops.(i) <- opcode_index tbl e.Snapshot.opcode;
      total := !total + List.length e.Snapshot.operands)
    entries;
  let first = Array.make (m + 1) 0 and deps = Array.make !total 0 and k = ref 0 in
  List.iteri
    (fun i (e : Snapshot.entry) ->
      first.(i) <- !k;
      List.iter
        (fun num ->
          let j = position pos_of_num num in
          if j >= 0 then begin
            deps.(!k) <- j;
            incr k
          end)
        e.Snapshot.operands)
    entries;
  first.(m) <- !k;
  { ops; first; deps = (if !k = !total then deps else Array.sub deps 0 !k) }

(* The n = 3 multiset as (sorted distinct keys, counts): one "u->v->w"
   key per length-2 walk u → v → w (for each node v, its users × its
   operands), and one "^u->v" key per operand v of a root u. The root
   boundary keeps a removal at a chain's end visible: an unused guard is
   a root. *)
let count3 { ops; first; deps } =
  let m = Array.length ops in
  let used = Array.make m false in
  Array.iter (fun d -> used.(d) <- true) deps;
  let n = ref 0 in
  for u = 0 to m - 1 do
    for j = first.(u) to first.(u + 1) - 1 do
      n := !n + first.(deps.(j) + 1) - first.(deps.(j))
    done;
    if not used.(u) then n := !n + first.(u + 1) - first.(u)
  done;
  let keys = Array.make !n 0 and k = ref 0 in
  for u = 0 to m - 1 do
    let a = ops.(u) and root = not used.(u) in
    for j = first.(u) to first.(u + 1) - 1 do
      let v = deps.(j) in
      let ab = (a lsl bits) lor ops.(v) in
      for l = first.(v) to first.(v + 1) - 1 do
        keys.(!k) <- (ab lsl bits) lor ops.(deps.(l));
        incr k
      done;
      if root then begin
        keys.(!k) <- rooted_tag lor ab;
        incr k
      end
    done
  done;
  Array.stable_sort Int.compare keys;
  (* run-length encode in place *)
  let counts = Array.make !n 0 and distinct = ref 0 in
  for i = 0 to !n - 1 do
    if i > 0 && keys.(i) = keys.(!distinct - 1) then
      counts.(!distinct - 1) <- counts.(!distinct - 1) + 1
    else begin
      keys.(!distinct) <- keys.(i);
      counts.(!distinct) <- 1;
      incr distinct
    end
  done;
  (Array.sub keys 0 !distinct, Array.sub counts 0 !distinct)

let intern_key tbl key =
  let id i = tbl.ids.((key lsr (i * bits)) land mask) in
  if key land rooted_tag <> 0 then Intern.pair (Intern.rooted (id 1)) (id 0)
  else Intern.triple (id 2) (id 1) (id 0)

let side_of_keys tbl entries : side =
  let side = Hashtbl.create (max 1 (List.length entries)) in
  List.iter (fun (key, c) -> Hashtbl.replace side (intern_key tbl key) c) entries;
  side

(* Both multiset differences of two sorted count arrays, in one merge. *)
let diff3 tbl (ka, ca) (kb, cb) : t =
  let na = Array.length ka and nb = Array.length kb in
  let rec go i j removed added =
    if i < na && (j = nb || ka.(i) < kb.(j)) then go (i + 1) j ((ka.(i), ca.(i)) :: removed) added
    else if j < nb && (i = na || kb.(j) < ka.(i)) then
      go i (j + 1) removed ((kb.(j), cb.(j)) :: added)
    else if i < na then
      let d = ca.(i) - cb.(j) in
      if d > 0 then go (i + 1) (j + 1) ((ka.(i), d) :: removed) added
      else if d < 0 then go (i + 1) (j + 1) removed ((kb.(j), -d) :: added)
      else go (i + 1) (j + 1) removed added
    else { removed = side_of_keys tbl removed; added = side_of_keys tbl added }
  in
  go 0 0 [] []

(* Δ₁ … Δₙ of a trace at n = 3. A snapshot whose positional form equals
   its predecessor's (an unchanged IR, or one a pass only renumbered)
   gets the empty Δ without being counted. *)
let trace3 (trace : (string * Snapshot.t) list) : (string * t) list =
  match trace with
  | [] -> []
  | (_, first) :: rest ->
    let tbl = new_opcodes () and pos_of_num = new_numbering () in
    let positional (s : Snapshot.t) = positional tbl pos_of_num s.Snapshot.entries in
    let prev = ref (positional first) in
    let prev_counts = ref (count3 !prev) in
    List.map
      (fun (pass, snap) ->
        let p = positional snap in
        if p = !prev then (pass, { removed = Hashtbl.create 1; added = Hashtbl.create 1 })
        else begin
          let counts = count3 p in
          let d = diff3 tbl !prev_counts counts in
          prev := p;
          prev_counts := counts;
          (pass, d)
        end)
      rest

(* Multiset of sub-chains of a dependency graph, keyed by interned
   sub-chain ids.
   - n = 2: the edge multiset (identical to enumerating chains and taking
     2-grams, without the path explosion);
   - n = 3 (the default): [count3] below;
   - n ≥ 4: full chain enumeration under the standard caps. *)
let subchain_multiset ~n (g : Depgraph.t) : side =
  if n = 3 then begin
    let tbl = new_opcodes () in
    let entries =
      List.map
        (fun (nd : Depgraph.node) ->
          {
            Snapshot.num = nd.Depgraph.num;
            opcode = nd.Depgraph.opcode;
            operands = List.map (fun (d : Depgraph.node) -> d.Depgraph.num) nd.Depgraph.deps;
          })
        g.Depgraph.nodes
    in
    (* a multiset is what a Δ from the empty one adds *)
    (diff3 tbl ([||], [||]) (count3 (positional tbl (new_numbering ()) entries))).added
  end
  else begin
    let counts = Hashtbl.create 64 in
    let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
    if n = 2 then
      List.iter
        (fun (node : Depgraph.node) ->
          List.iter
            (fun (dep : Depgraph.node) ->
              bump (Intern.pair node.Depgraph.opcode_id dep.Depgraph.opcode_id))
            node.Depgraph.deps)
        g.Depgraph.nodes
    else
      List.iter
        (fun chain ->
          List.iter (fun ng -> bump (Intern.intern (key_of_ngram ng))) (Chains.ngrams n chain))
        (Chains.extract g);
    counts
  end

let diff (a : side) (b : side) =
  (* multiset difference a − b *)
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k ca ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then Hashtbl.replace out k (ca - cb))
    a;
  out

(* [of_multisets] lets callers that walk a whole snapshot trace compute
   each graph's multiset once instead of once per adjacent pair. *)
let of_multisets ~(before : side) ~(after : side) : t =
  { removed = diff before after; added = diff after before }

let compute ?(n = 3) (before : Depgraph.t) (after : Depgraph.t) : t =
  of_multisets ~before:(subchain_multiset ~n before) ~after:(subchain_multiset ~n after)

let is_empty t = Hashtbl.length t.removed = 0 && Hashtbl.length t.added = 0

let total side = Hashtbl.fold (fun _ c acc -> acc + c) side 0

let side_of_list entries : side =
  let tbl = Hashtbl.create (max 8 (List.length entries)) in
  List.iter (fun (k, c) -> Hashtbl.replace tbl (Intern.intern k) c) entries;
  tbl

let find_key (side : side) key = Hashtbl.find_opt side (Intern.intern key)

let mem_key side key = find_key side key <> None

(* serialization: (delta (removed (<key> <count>) ...) (added ...)) —
   keys are written back as strings, so the on-disk format is unchanged
   by the in-memory interning *)

let side_to_sexpr name side =
  let entries =
    Hashtbl.fold (fun k c acc -> (Intern.to_string k, c) :: acc) side []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (k, c) -> Sexpr.list [ Sexpr.atom k; Sexpr.int c ])
  in
  Sexpr.list (Sexpr.atom name :: entries)

let side_of_sexprs payload : side =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match Sexpr.to_list s with
      | [ k; c ] ->
        (* a count below 1 would silently lower EqChains: fail closed *)
        let c = Sexpr.to_int c in
        if c < 1 then raise (Sexpr.Decode_error (Printf.sprintf "non-positive delta count %d" c));
        Hashtbl.replace tbl (Intern.intern (Sexpr.to_atom k)) c
      | _ -> raise (Sexpr.Decode_error "bad delta entry"))
    payload;
  tbl

let to_sexpr t =
  Sexpr.list
    [ Sexpr.atom "delta"; side_to_sexpr "removed" t.removed; side_to_sexpr "added" t.added ]

let of_sexpr s =
  let removed = side_of_sexprs (Sexpr.field "removed" s) in
  let added = side_of_sexprs (Sexpr.field "added" s) in
  { removed; added }

let to_string t =
  let fmt side =
    Hashtbl.fold (fun k c acc -> Printf.sprintf "%s x%d" (Intern.to_string k) c :: acc) side []
    |> List.sort String.compare |> String.concat ", "
  in
  Printf.sprintf "removed={%s} added={%s}" (fmt t.removed) (fmt t.added)
