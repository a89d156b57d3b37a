module Sexpr = Jitbull_util.Sexpr
module Snapshot = Jitbull_mir.Snapshot

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;
}

let extract ?(n = 3) (trace : (string * Snapshot.t) list) : t =
  match trace with
  | [] -> { func_name = "?"; deltas = [] }
  | (_, first) :: _ when n = 3 -> { func_name = first.Snapshot.func_name; deltas = Delta.trace3 trace }
  | (_, first) :: rest ->
    let func_name = first.Snapshot.func_name in
    let deltas = ref [] in
    let prev = ref (Delta.subchain_multiset ~n (Depgraph.build first)) in
    List.iter
      (fun (pass_name, snap) ->
        let m = Delta.subchain_multiset ~n (Depgraph.build snap) in
        deltas := (pass_name, Delta.of_multisets ~before:!prev ~after:m) :: !deltas;
        prev := m)
      rest;
    { func_name; deltas = List.rev !deltas }

let nonempty_passes t =
  List.filter_map
    (fun (name, d) -> if Delta.is_empty d then None else Some name)
    t.deltas

let to_sexpr t =
  Sexpr.list
    [
      Sexpr.atom "dna";
      Sexpr.list [ Sexpr.atom "func"; Sexpr.atom t.func_name ];
      Sexpr.list
        (Sexpr.atom "deltas"
        :: List.map
             (fun (name, d) -> Sexpr.list [ Sexpr.atom name; Delta.to_sexpr d ])
             t.deltas);
    ]

let of_sexpr s =
  let func_name =
    match Sexpr.field "func" s with
    | [ a ] -> Sexpr.to_atom a
    | _ -> raise (Sexpr.Decode_error "dna: bad func field")
  in
  let deltas =
    List.map
      (fun entry ->
        match Sexpr.to_list entry with
        | [ name; d ] -> (Sexpr.to_atom name, Delta.of_sexpr d)
        | _ -> raise (Sexpr.Decode_error "dna: bad delta entry"))
      (Sexpr.field "deltas" s)
  in
  { func_name; deltas }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "dna of %s:\n" t.func_name);
  List.iter
    (fun (name, d) ->
      if not (Delta.is_empty d) then
        Buffer.add_string buf (Printf.sprintf "  %-18s %s\n" name (Delta.to_string d)))
    t.deltas;
  Buffer.contents buf
