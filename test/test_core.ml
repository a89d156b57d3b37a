(* Tests for the JITBULL core: dependency graphs (Algorithm 1), chains,
   deltas (including the paper's worked example), the comparator
   (Algorithm 2), the database, and the go/no-go policy. *)

open Helpers
module Snapshot = Jitbull_mir.Snapshot
module Depgraph = Jitbull_core.Depgraph
module Chains = Jitbull_core.Chains
module Delta = Jitbull_core.Delta
module Dna = Jitbull_core.Dna
module Comparator = Jitbull_core.Comparator
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Engine = Jitbull_jit.Engine
module VC = Jitbull_passes.Vuln_config
module Sexpr = Jitbull_util.Sexpr

(* Hand-build a snapshot: (num, opcode, operands). *)
let snap entries =
  {
    Snapshot.func_name = "test";
    n_blocks = 1;
    entries =
      List.map
        (fun (num, opcode, operands) -> { Snapshot.num; opcode; operands })
        entries;
  }

let test_buildgraph_roots () =
  (* 8 boundscheck uses 2 (unbox) and 7 (initializedlength); 9 uses 8 —
     so 9 is the only root among instructions with operands *)
  let g =
    Depgraph.build
      (snap
         [
           (2, "unbox", []);
           (7, "initializedlength", []);
           (8, "boundscheck", [ 2; 7 ]);
           (9, "loadelement", [ 8 ]);
         ])
  in
  check_int "roots" 1 (List.length g.Depgraph.roots);
  check_string "root opcode" "loadelement" (List.hd g.Depgraph.roots).Depgraph.opcode;
  check_int "edges" 3 (Depgraph.edge_count g)

let test_buildgraph_operandless_excluded () =
  (* an instruction with no operands that nothing uses is not in G *)
  let g = Depgraph.build (snap [ (1, "constant", []); (2, "parameter", []) ]) in
  check_int "empty graph" 0 (Depgraph.node_count g)

let test_chains_paper_shapes () =
  let g =
    Depgraph.build
      (snap [ (1, "d", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]); (4, "a", [ 3 ]) ])
  in
  let chains = Chains.extract g in
  check_int "one chain" 1 (List.length chains);
  check_string "a->b->c->d" "a->b->c->d" (Chains.chain_to_string (List.hd chains))

let test_chains_diamond () =
  (* a uses b and c; both use d: two root-to-leaf paths *)
  let g =
    Depgraph.build
      (snap [ (1, "d", []); (2, "b", [ 1 ]); (3, "c", [ 1 ]); (4, "a", [ 2; 3 ]) ])
  in
  let chains = Chains.extract g in
  check_int "two paths" 2 (List.length chains)

let test_chains_cap () =
  let g =
    Depgraph.build
      (snap [ (1, "d", []); (2, "b", [ 1 ]); (3, "c", [ 1 ]); (4, "a", [ 2; 3 ]) ])
  in
  let chains = Chains.extract ~max_chains:1 g in
  check_int "capped" 1 (List.length chains)

let test_ngrams () =
  check_bool "2-grams" true
    (Chains.ngrams 2 [ "a"; "b"; "c" ] = [ [ "a"; "b" ]; [ "b"; "c" ] ]);
  check_bool "short chain" true (Chains.ngrams 3 [ "a"; "b" ] = [ [ "a"; "b" ] ])

(* The paper's worked example: C_{i-1} = A→B→C→D, C_i = B→C→E gives
   δ⁻ = {A→B, C→D} and δ⁺ = {C→E}. *)
let test_delta_paper_example () =
  let before =
    Depgraph.build
      (snap [ (1, "d", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]); (4, "a", [ 3 ]) ])
  in
  let after =
    Depgraph.build (snap [ (1, "e", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]) ])
  in
  (* the paper's example is in 2-gram terms *)
  let d = Delta.compute ~n:2 before after in
  check_int "two removed subchains" 2 (Delta.total d.Delta.removed);
  check_int "one added subchain" 1 (Delta.total d.Delta.added);
  check_bool "A->B removed" true (Delta.mem_key d.Delta.removed "a->b");
  check_bool "C->D removed" true (Delta.mem_key d.Delta.removed "c->d");
  check_bool "C->E added" true (Delta.mem_key d.Delta.added "c->e")

let test_delta_empty_on_identical () =
  let g = Depgraph.build (snap [ (1, "x", []); (2, "y", [ 1 ]) ]) in
  let d = Delta.compute g g in
  check_bool "empty" true (Delta.is_empty d)

let test_delta_multiplicity () =
  (* two removed identical edges count twice *)
  let before =
    Depgraph.build
      (snap [ (1, "x", []); (2, "y", [ 1 ]); (3, "x", []); (4, "y", [ 3 ]) ])
  in
  let after = Depgraph.build (snap []) in
  let d = Delta.compute ~n:2 before after in
  check_int "multiplicity 2" 2 (Delta.total d.Delta.removed);
  check_int "single key" 1 (Hashtbl.length d.Delta.removed)

let test_delta_sexpr_roundtrip () =
  let before =
    Depgraph.build
      (snap [ (1, "d", []); (2, "c", [ 1 ]); (3, "b", [ 2 ]); (4, "a", [ 3 ]) ])
  in
  let after = Depgraph.build (snap [ (1, "e", []); (2, "c", [ 1 ]) ]) in
  let d = Delta.compute before after in
  let d' = Delta.of_sexpr (Sexpr.of_string (Sexpr.to_string (Delta.to_sexpr d))) in
  check_int "removed preserved" (Delta.total d.Delta.removed) (Delta.total d'.Delta.removed);
  check_int "added preserved" (Delta.total d.Delta.added) (Delta.total d'.Delta.added)

(* ---- comparator (Algorithm 2) ---- *)

let side_of_list = Delta.side_of_list

let params = { Comparator.thr = 2; ratio = 0.5 }

let test_comparator_threshold () =
  let a = side_of_list [ ("x->y", 1) ] in
  let b = side_of_list [ ("x->y", 1) ] in
  (* EqChains = 1 < Thr = 2 *)
  check_bool "below threshold" false (Comparator.compare_sides ~params a b);
  let a2 = side_of_list [ ("x->y", 2) ] in
  let b2 = side_of_list [ ("x->y", 2) ] in
  check_bool "at threshold" true (Comparator.compare_sides ~params a2 b2)

let test_comparator_ratio () =
  (* 2 common out of min(10, 2) = 2 → ratio 1.0: match;
     2 common out of min(10, 10) = 10 → ratio 0.2 < 0.5: no match *)
  let small = side_of_list [ ("a->b", 1); ("c->d", 1) ] in
  let big =
    side_of_list [ ("a->b", 1); ("c->d", 1); ("e->f", 4); ("g->h", 4) ]
  in
  check_bool "small vs big matches (MaxEq = small)" true
    (Comparator.compare_sides ~params small big);
  let big2 = side_of_list [ ("a->b", 1); ("c->d", 1); ("zz->ww", 8) ] in
  (* EqChains = 2 ≥ Thr but 2 < 0.5 × min(10, 10) *)
  check_bool "big vs big fails ratio" false (Comparator.compare_sides ~params big big2)

let test_comparator_min_multiplicity () =
  let a = side_of_list [ ("x->y", 5) ] in
  let b = side_of_list [ ("x->y", 2) ] in
  (* EqChains = min(5,2) = 2; MaxEq = min(5,2) = 2 *)
  check_bool "min of multiplicities" true (Comparator.compare_sides ~params a b)

let test_similar_either_side () =
  let mk removed added = { Delta.removed = side_of_list removed; added = side_of_list added } in
  let a = mk [ ("r->s", 2) ] [] in
  let b = mk [ ("r->s", 2) ] [ ("zz->ww", 9) ] in
  check_bool "removed side matches" true (Comparator.similar ~params a b);
  let c = mk [] [ ("p->q", 3) ] in
  let d = mk [ ("other", 5) ] [ ("p->q", 3) ] in
  check_bool "added side matches" true (Comparator.similar ~params c d);
  let e = mk [ ("x", 2) ] [] in
  let f = mk [] [ ("x", 2) ] in
  check_bool "sides not mixed" false (Comparator.similar ~params e f)

let test_matching_passes () =
  let mk removed = { Delta.removed = side_of_list removed; added = side_of_list [] } in
  let dna1 =
    { Dna.func_name = "f"; deltas = [ ("gvn", mk [ ("a->b", 3) ]); ("dce", mk [ ("c->d", 3) ]) ] }
  in
  let dna2 =
    { Dna.func_name = "g"; deltas = [ ("gvn", mk [ ("a->b", 3) ]); ("dce", mk [ ("zz", 1) ]) ] }
  in
  check_bool "only gvn matches" true
    (Comparator.matching_passes ~params dna1 dna2 = [ "gvn" ])

(* ---- DNA extraction from real traces ---- *)

let test_dna_from_trace () =
  (* two stores to the same index: the second bounds check is genuinely
     redundant and GVN's removal of it (a root of the dependency graph)
     is visible in the delta *)
  let _, trace =
    optimized_mir ~func:0
      "function f(a, v) { a[1] = v; a[1] = v + 1; } for (var k = 0; k < 5; k++) f([1,2,3], k);"
  in
  let dna = Dna.extract trace in
  check_string "func name" "f" dna.Dna.func_name;
  check_int "one delta per pass" (List.length Jitbull_passes.Pipeline.passes)
    (List.length dna.Dna.deltas);
  check_bool "gvn delta non-empty" true (List.mem "gvn" (Dna.nonempty_passes dna));
  (* annotation-only passes are empty *)
  let d = List.assoc "aliasanalysis" dna.Dna.deltas in
  check_bool "aliasanalysis empty" true (Delta.is_empty d)

let test_dna_insensitive_to_renaming () =
  let source =
    "function NAME(a, b) { var local = a + b; return local * local; } for (var k = 0; k < 5; k++) NAME(k, 2);"
  in
  let renamed =
    "function zz9(q, r) { var w = q + r; return w * w; } for (var k = 0; k < 5; k++) zz9(k, 2);"
  in
  let _, t1 = optimized_mir ~func:0 source in
  let _, t2 = optimized_mir ~func:0 renamed in
  let d1 = (Dna.extract t1).Dna.deltas and d2 = (Dna.extract t2).Dna.deltas in
  List.iter2
    (fun (p1, a) (p2, b) ->
      check_string "same pass" p1 p2;
      check_int (p1 ^ " removed equal") (Delta.total a.Delta.removed) (Delta.total b.Delta.removed);
      check_int (p1 ^ " added equal") (Delta.total a.Delta.added) (Delta.total b.Delta.added))
    d1 d2

let test_dna_sexpr_roundtrip () =
  let _, trace =
    optimized_mir ~func:0 "function f(a) { return a + a + a; } for (var k = 0; k < 5; k++) f(k);"
  in
  let dna = Dna.extract trace in
  let dna' = Dna.of_sexpr (Sexpr.of_string (Sexpr.to_string (Dna.to_sexpr dna))) in
  check_string "name" dna.Dna.func_name dna'.Dna.func_name;
  check_int "deltas" (List.length dna.Dna.deltas) (List.length dna'.Dna.deltas)

(* ---- n = 3 extraction against a brute-force reference ---- *)

(* The n = 3 sub-chain multiset, straight from DESIGN §4 and written
   independently of [Depgraph]: an operand that names no instruction of
   the snapshot is dropped; every (user, dependency) pair of a node is one
   "user->node->dep" sub-chain; every dependency of a root (an
   instruction with operands that no instruction uses) is one "^root->dep"
   boundary 2-gram. Keys are plain strings. *)
let reference_multiset3 (s : Snapshot.t) =
  let by_num = Hashtbl.create 16 in
  List.iter (fun (e : Snapshot.entry) -> Hashtbl.replace by_num e.Snapshot.num e) s.Snapshot.entries;
  let deps (e : Snapshot.entry) = List.filter_map (Hashtbl.find_opt by_num) e.Snapshot.operands in
  let users (mid : Snapshot.entry) =
    List.concat_map
      (fun (u : Snapshot.entry) ->
        List.filter_map
          (fun (d : Snapshot.entry) -> if d.Snapshot.num = mid.Snapshot.num then Some u else None)
          (deps u))
      s.Snapshot.entries
  in
  let out = Hashtbl.create 16 in
  let bump k = Hashtbl.replace out k (1 + Option.value ~default:0 (Hashtbl.find_opt out k)) in
  List.iter
    (fun (mid : Snapshot.entry) ->
      List.iter
        (fun (u : Snapshot.entry) ->
          List.iter
            (fun (d : Snapshot.entry) ->
              bump (u.Snapshot.opcode ^ "->" ^ mid.Snapshot.opcode ^ "->" ^ d.Snapshot.opcode))
            (deps mid))
        (users mid);
      if mid.Snapshot.operands <> [] && users mid = [] then
        List.iter
          (fun (d : Snapshot.entry) -> bump ("^" ^ mid.Snapshot.opcode ^ "->" ^ d.Snapshot.opcode))
          (deps mid))
    s.Snapshot.entries;
  out

let reference_diff a b =
  Hashtbl.fold
    (fun k ca acc ->
      let cb = Option.value ~default:0 (Hashtbl.find_opt b k) in
      if ca > cb then (k, ca - cb) :: acc else acc)
    a []
  |> List.sort compare

(* Canonical string-keyed form of one Δ: sorted (key, count) lists. *)
type canon_delta = (string * int) list * (string * int) list

let canon_side side =
  Hashtbl.fold (fun k c acc -> (Jitbull_util.Intern.to_string k, c) :: acc) side []
  |> List.sort compare

let reference_dna trace : (string * canon_delta) list =
  match trace with
  | [] -> []
  | (_, first) :: rest ->
    let prev = ref (reference_multiset3 first) in
    List.map
      (fun (pass, s) ->
        let m = reference_multiset3 s in
        let d = (reference_diff !prev m, reference_diff m !prev) in
        prev := m;
        (pass, d))
      rest

let extracted_dna trace : (string * canon_delta) list =
  List.map
    (fun (pass, (d : Delta.t)) -> (pass, (canon_side d.Delta.removed, canon_side d.Delta.added)))
    (Dna.extract trace).Dna.deltas

let show_canon dna =
  String.concat "\n"
    (List.map
       (fun (pass, (r, a)) ->
         let side l = String.concat ", " (List.map (fun (k, c) -> Printf.sprintf "%s x%d" k c) l) in
         Printf.sprintf "%s: removed={%s} added={%s}" pass (side r) (side a))
       dna)

let check_extract_matches_reference what trace =
  let expected = reference_dna trace and got = extracted_dna trace in
  if expected <> got then
    Alcotest.failf "%s: Dna.extract differs from the n=3 reference\nreference:\n%s\nextract:\n%s"
      what (show_canon expected) (show_canon got)

(* Every Ion tier-up trace of [source] on an engine with [vulns]: an
   analyzer that records its trace and allows. A script that ends in an
   exploit observable still yields the traces taken before it. *)
let ion_traces ~vulns source =
  let traces = ref [] in
  let analyzer ~ctx:_ ~func_index:_ ~name ~trace =
    traces := (name, trace) :: !traces;
    Engine.Allow
  in
  let config = { Engine.default_config with Engine.vulns; analyzer = Some analyzer } in
  (try ignore (Engine.run_source config source) with _ -> ());
  List.rev !traces

let check_program_traces ~vulns label source =
  let traces = ion_traces ~vulns source in
  List.iteri
    (fun i (name, trace) ->
      check_extract_matches_reference (Printf.sprintf "%s, tier-up %d (%s)" label i name) trace)
    traces;
  List.length traces

(* The corpus directory is a test dependency (see test/dune): [dune
   runtest] runs the suite from _build/default/test, a direct run of the
   binary usually from the repository root. *)
let distilled_sources () =
  let dir =
    List.find Sys.file_exists [ "../corpus/distilled"; "corpus/distilled" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".js")
  |> List.sort compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

(* The paper's #1–#4 VDCs: the bugs of the benchmark's vulnerable engine. *)
let vdc4_cves = [ VC.CVE_2019_17026; VC.CVE_2019_9810; VC.CVE_2019_9791; VC.CVE_2019_11707 ]

let test_extract_reference_workloads () =
  let vulns = VC.make vdc4_cves in
  let n =
    List.fold_left
      (fun acc (w : Jitbull_workloads.Workloads.t) ->
        acc + check_program_traces ~vulns w.Jitbull_workloads.Workloads.name
                w.Jitbull_workloads.Workloads.source)
      0 Jitbull_workloads.Workloads.everything
  in
  check_bool "workloads reach Ion" true (n > 0)

let test_extract_reference_distilled () =
  let files = distilled_sources () in
  check_int "29 distilled programs" 29 (List.length files);
  List.iter
    (fun (f, source) -> ignore (check_program_traces ~vulns:(VC.make VC.all) f source))
    files

let test_extract_reference_vdcs () =
  let module D = Jitbull_vdc.Demonstrators in
  let module V = Jitbull_vdc.Variants in
  let n =
    List.fold_left
      (fun acc (d : D.t) ->
        let vulns = VC.make [ d.D.cve ] in
        let sources =
          (d.D.name, d.D.source)
          :: List.map
               (fun k -> (d.D.name ^ "/" ^ V.kind_name k, V.apply k d.D.source))
               V.all_kinds
        in
        List.fold_left
          (fun acc (label, source) -> acc + check_program_traces ~vulns label source)
          acc sources)
      0 D.all
  in
  let n =
    n
    + check_program_traces ~vulns:(VC.make [ VC.CVE_2019_17026 ]) "17026 second implementation"
        D.second_implementation_17026
  in
  check_bool "VDCs reach Ion" true (n > 0)

(* Generated snapshot traces. Each snapshot after the first is derived
   from its predecessor by one step: a copy, a renumbering (an injective
   map over instruction numbers), a reordering, a local edit, or a fresh
   (possibly empty) snapshot. Operand lists draw dangling numbers,
   self-references and repeats; numbers within a snapshot are distinct,
   as in every snapshot [Snapshot.take] produces; renumbering may make them
   negative. *)
let gen_snapshot_trace : (string * Snapshot.t) list QCheck.Gen.t =
 fun st ->
  let opcodes = [| "add"; "phi"; "boundscheck"; "unboxint32"; "loadelement"; "constant" |] in
  let pick_op () = opcodes.(Random.State.int st (Array.length opcodes)) in
  let operands nums =
    List.init (Random.State.int st 4) (fun _ ->
        match Random.State.int st 6 with
        | 0 -> 1000 + Random.State.int st 3 (* dangling *)
        | _ when nums = [||] -> -1 (* dangling *)
        | _ -> nums.(Random.State.int st (Array.length nums)))
  in
  let fresh () =
    let m = Random.State.int st 10 in
    let nums = Array.init m (fun i -> i + 1) in
    List.init m (fun i -> { Snapshot.num = nums.(i); opcode = pick_op (); operands = operands nums })
  in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let renumber entries =
    let k = 2 + Random.State.int st 3 and c = Random.State.int st 50 - 25 in
    let f n = (n * k) + c in
    List.map
      (fun (e : Snapshot.entry) ->
        { e with Snapshot.num = f e.Snapshot.num; operands = List.map f e.Snapshot.operands })
      entries
  in
  let edit entries =
    let nums = Array.of_list (List.map (fun (e : Snapshot.entry) -> e.Snapshot.num) entries) in
    let next = 1 + Array.fold_left max 0 nums in
    match entries with
    | [] -> fresh ()
    | _ ->
      let i = Random.State.int st (List.length entries) in
      List.concat
        (List.mapi
           (fun j (e : Snapshot.entry) ->
             if j <> i then [ e ]
             else
               match Random.State.int st 4 with
               | 0 -> [] (* removed; its users now dangle *)
               | 1 -> [ { e with Snapshot.opcode = pick_op () } ]
               | 2 -> [ { e with Snapshot.operands = operands nums } ]
               | _ -> [ e; { Snapshot.num = next; opcode = pick_op (); operands = operands nums } ])
           entries)
  in
  let step entries =
    match Random.State.int st 6 with
    | 0 -> entries
    | 1 -> renumber entries
    | 2 -> shuffle entries
    | 3 | 4 -> edit entries
    | _ -> if Random.State.bool st then [] else fresh ()
  in
  let mk entries = { Snapshot.func_name = "gen"; n_blocks = 1; entries } in
  let len = 1 + Random.State.int st 8 in
  let rec go i prev acc =
    if i = len then List.rev acc
    else
      let entries = step prev in
      go (i + 1) entries ((Printf.sprintf "p%d" i, mk entries) :: acc)
  in
  let first = fresh () in
  go 1 first [ ("initial", mk first) ]

let show_snapshot_trace trace =
  String.concat ""
    (List.map (fun (pass, s) -> "-- " ^ pass ^ "\n" ^ Snapshot.to_string s) trace)

let prop_extract_reference_generated =
  QCheck.Test.make ~count:(qcheck_count 500)
    ~name:"dna extract == n=3 reference on generated traces"
    (QCheck.make ~print:show_snapshot_trace gen_snapshot_trace)
    (fun trace ->
      let rec adjacent = function
        | a :: (b :: _ as rest) -> (a, b) :: adjacent rest
        | _ -> []
      in
      (* [Delta.compute] (n = 3) on the dependency graphs agrees too *)
      let computed =
        List.map
          (fun ((_, a), (pass, b)) ->
            let d = Delta.compute (Depgraph.build a) (Depgraph.build b) in
            (pass, (canon_side d.Delta.removed, canon_side d.Delta.added)))
          (adjacent trace)
      in
      let expected = reference_dna trace in
      expected = extracted_dna trace && expected = computed)

(* ---- database ---- *)

let test_db_lifecycle () =
  let db = Db.create () in
  check_bool "starts empty" true (Db.is_empty db);
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let n =
    Db.harvest db ~cve:"CVE-2019-17026" ~vulns:(VC.make [ VC.CVE_2019_17026 ])
      d.Jitbull_vdc.Demonstrators.source
  in
  check_bool "harvested entries" true (n > 0);
  check_bool "cve listed" true (Db.cves db = [ "CVE-2019-17026" ]);
  (* patch applied: remove *)
  Db.remove_cve db "CVE-2019-17026";
  check_bool "empty after patch" true (Db.is_empty db)

let test_db_save_load () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9813 in
  ignore
    (Db.harvest db ~cve:"CVE-2019-9813" ~vulns:(VC.make [ VC.CVE_2019_9813 ])
       d.Jitbull_vdc.Demonstrators.source);
  let path = Filename.temp_file "jitbull_db" ".sexp" in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  check_int "entries preserved" (List.length (Db.entries db)) (List.length (Db.entries db'));
  check_bool "cves preserved" true (Db.cves db = Db.cves db')

(* ---- corrupt DB input fails closed ---- *)

let vdc4_db () =
  let module D = Jitbull_vdc.Demonstrators in
  let db = Db.create () in
  List.iter
    (fun cve ->
      let d = D.find cve in
      ignore (Db.harvest db ~cve:d.D.name ~vulns:(VC.make [ cve ]) d.D.source))
    vdc4_cves;
  db

let decode_fails what f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded without Decode_error" what
  | exception Sexpr.Decode_error _ -> ()

let test_delta_rejects_non_positive_counts () =
  List.iter
    (fun count ->
      let text side =
        Printf.sprintf "(delta (removed%s) (added%s))"
          (if side = `Removed then Printf.sprintf " (^boundscheck->unboxint32 %d)" count else "")
          (if side = `Added then Printf.sprintf " (add->phi->constant %d)" count else "")
      in
      List.iter
        (fun side ->
          decode_fails (text side) (fun () -> Delta.of_sexpr (Sexpr.of_string (text side))))
        [ `Removed; `Added ];
      (* the same count inside a saved DB: the whole file is refused *)
      let saved = Sexpr.to_string (Db.to_sexpr (vdc4_db ())) in
      let needle = " 1)" in
      let i =
        let rec find i = if String.sub saved i 3 = needle then i else find (i + 1) in
        find 0
      in
      let corrupted =
        String.sub saved 0 i ^ Printf.sprintf " %d)" count
        ^ String.sub saved (i + 3) (String.length saved - i - 3)
      in
      decode_fails
        (Printf.sprintf "db with count %d" count)
        (fun () -> Db.of_sexpr (Sexpr.of_string corrupted)))
    [ -1; 0 ]

let test_db_truncation_fails_closed () =
  let path = Filename.temp_file "jitbull_vdc4" ".db" in
  Db.save (vdc4_db ()) path;
  let saved = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check_bool "saved DB loads" true
    (Db.entries (Db.of_sexpr (Sexpr.of_string saved)) <> []);
  (* every prefix that stops before the final ')' *)
  for len = 0 to String.rindex saved ')' do
    decode_fails
      (Printf.sprintf "prefix of %d bytes" len)
      (fun () -> Db.of_sexpr (Sexpr.of_string (String.sub saved 0 len)))
  done

(* ---- policy / engine integration ---- *)

let test_empty_db_no_analyzer () =
  let db = Db.create () in
  let config = Jitbull.config ~vulns:VC.none db in
  check_bool "no analyzer when DB empty" true (config.Engine.analyzer = None)

let test_monitor_records () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let vulns = VC.make [ VC.CVE_2019_17026 ] in
  ignore (Db.harvest db ~cve:"CVE-2019-17026" ~vulns d.Jitbull_vdc.Demonstrators.source);
  let monitor = Jitbull.new_monitor () in
  let config = Jitbull.config ~monitor ~vulns db in
  (* run an innocent workload: records accumulate, most verdicts Allow *)
  ignore (Engine.run_source config "function h(x) { return x + 1; } var s = 0; for (var i = 0; i < 80; i++) { s = h(i); } print(s);");
  check_bool "records present" true (monitor.Jitbull.records <> []);
  check_bool "innocent function allowed" true
    (List.exists
       (fun (r : Jitbull.record) -> r.Jitbull.verdict = `Allow)
       monitor.Jitbull.records)

let test_forbid_on_mandatory_pass () =
  (* a synthetic analyzer decision path: if the dangerous list contains a
     mandatory pass the verdict is Forbid. We simulate by injecting a
     matching DNA entry for 'renumber'. *)
  let db = Db.create () in
  (* "^" marks a root-boundary sub-chain in the 3-gram representation *)
  let side = Delta.side_of_list [ ("^parameter->constant", 5) ] in
  let delta = { Delta.removed = side; added = Delta.side_of_list [] } in
  let dna = { Dna.func_name = "evil"; deltas = [ ("renumber", delta) ] } in
  Db.add db { Db.cve = "SYNTH"; dna };
  let monitor = Jitbull.new_monitor () in
  let analyze = Jitbull.analyzer ~monitor db in
  (* craft a trace whose renumber delta matches *)
  let snap1 =
    snap [ (1, "constant", []); (2, "parameter", [ 1 ]) ]
  in
  ignore snap1;
  (* direct decision check through the comparator instead: matching_passes
     on a mandatory pass yields Forbid via the analyzer *)
  let trace =
    [
      ("initial", snap [ (1, "constant", []); (2, "parameter", [ 1 ]); (3, "parameter", [ 1 ]);
                         (4, "parameter", [ 1 ]); (5, "parameter", [ 1 ]); (6, "parameter", [ 1 ]) ]);
      ("renumber", snap [ (1, "constant", []) ]);
    ]
  in
  match
    analyze
      ~ctx:{ Engine.cc_bytecode_hash = 0; cc_feedback_hash = 0 }
      ~func_index:0 ~name:"f" ~trace
  with
  | Engine.Forbid_jit -> ()
  | Engine.Allow -> Alcotest.fail "expected Forbid, got Allow"
  | Engine.Disable_passes _ -> Alcotest.fail "expected Forbid, got Disable"

let test_detection_flags_dangerous_pass () =
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_17026 in
  let vulns = VC.make [ VC.CVE_2019_17026 ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:"CVE-2019-17026" ~vulns d.Jitbull_vdc.Demonstrators.source);
  let monitor = Jitbull.new_monitor () in
  let config = Jitbull.config ~monitor ~vulns db in
  (* run the second, independent implementation of the same exploit *)
  ignore
    (Jitbull_vdc.Demonstrators.run_exploit config
       Jitbull_vdc.Demonstrators.second_implementation_17026 Jitbull_vdc.Demonstrators.Shellcode);
  let gvn_flagged =
    List.exists
      (fun (r : Jitbull.record) -> List.mem "gvn" r.Jitbull.dangerous_passes)
      monitor.Jitbull.records
  in
  check_bool "GVN flagged on independent implementation" true gvn_flagged

let test_harvest_cold_script_empty () =
  (* a script whose functions never reach Ion contributes no DNA *)
  let db = Db.create () in
  let n =
    Db.harvest db ~cve:"COLD" ~vulns:VC.none "function f(x) { return x; } print(f(1));"
  in
  check_int "nothing harvested" 0 n;
  check_bool "db still empty" true (Db.is_empty db)

let test_engine_forbid_end_to_end () =
  (* a DB entry matching a mandatory pass drives the engine's scenario 3:
     the function is denied JIT but keeps running correctly interpreted *)
  let db = Db.create () in
  (* the renumber pass never changes dependency edges in reality; force a
     synthetic match by teaching the comparator a universal delta for it *)
  let side =
    Delta.side_of_list [ ("^storeelement->elements", 50); ("^boundscheck->unboxint32", 50) ]
  in
  let delta = { Delta.removed = side; added = Delta.side_of_list [] } in
  Db.add db { Db.cve = "SYNTH-MANDATORY"; dna = { Dna.func_name = "evil"; deltas = [ ("renumber", delta) ] } };
  let monitor = Jitbull.new_monitor () in
  let analyzer ~ctx:_ ~func_index:_ ~name:_ ~trace:_ =
    (* bypass comparison: always claim the mandatory pass matched *)
    ignore monitor;
    Engine.Disable_passes [ "renumber" ]
  in
  let config =
    { Engine.default_config with
      Engine.baseline_threshold = 2;
      ion_threshold = 4;
      analyzer = Some analyzer }
  in
  let src =
    "function f(x) { return x * 2; } var s = 0; for (var i = 0; i < 20; i++) { s = f(i); } print(s);"
  in
  let out, t = Engine.run_source config src in
  check_string "still correct without JIT" "38\n" out;
  check_bool "function counted as NoJIT" true ((Engine.stats t).Engine.nr_nojit > 0)

let test_custom_params_flow_through () =
  (* an absurdly strict Ratio disables all matching: the VDC's own variant
     is NOT blocked, demonstrating params plumbing end-to-end *)
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9813 in
  let vulns = VC.make [ VC.CVE_2019_9813 ] in
  let db = Db.create () in
  ignore (Db.harvest db ~cve:d.Jitbull_vdc.Demonstrators.name ~vulns d.Jitbull_vdc.Demonstrators.source);
  let strict = { Comparator.thr = 100000; ratio = 1.0 } in
  let config = Jitbull.config ~params:strict ~vulns db in
  match
    Jitbull_vdc.Demonstrators.run_exploit config d.Jitbull_vdc.Demonstrators.source
      d.Jitbull_vdc.Demonstrators.expected
  with
  | Jitbull_vdc.Demonstrators.Exploited _ -> ()  (* matching effectively off *)
  | Jitbull_vdc.Demonstrators.Neutralized ->
    Alcotest.fail "impossible threshold should disable matching"

let test_monitor_newest_first () =
  let db = Db.create () in
  let d = Jitbull_vdc.Demonstrators.find VC.CVE_2019_9795 in
  let vulns = VC.make [ VC.CVE_2019_9795 ] in
  ignore (Db.harvest db ~cve:d.Jitbull_vdc.Demonstrators.name ~vulns d.Jitbull_vdc.Demonstrators.source);
  let monitor = Jitbull.new_monitor () in
  let config = Jitbull.config ~monitor ~vulns db in
  ignore
    (Engine.run_source config
       "function a1(x) { return x + 1; } function b2(x) { return x + 2; } var s = 0; for (var i = 0; i < 80; i++) { s = a1(i) + b2(i); } print(s);");
  check_int "two analyzed functions" 2 (List.length monitor.Jitbull.records)

let suite =
  ( "jitbull-core",
    [
      Alcotest.test_case "buildgraph roots" `Quick test_buildgraph_roots;
      Alcotest.test_case "buildgraph excludes orphans" `Quick test_buildgraph_operandless_excluded;
      Alcotest.test_case "chains linear" `Quick test_chains_paper_shapes;
      Alcotest.test_case "chains diamond" `Quick test_chains_diamond;
      Alcotest.test_case "chains cap" `Quick test_chains_cap;
      Alcotest.test_case "ngrams" `Quick test_ngrams;
      Alcotest.test_case "delta: paper worked example" `Quick test_delta_paper_example;
      Alcotest.test_case "delta empty on identical" `Quick test_delta_empty_on_identical;
      Alcotest.test_case "delta multiplicity" `Quick test_delta_multiplicity;
      Alcotest.test_case "delta sexpr roundtrip" `Quick test_delta_sexpr_roundtrip;
      Alcotest.test_case "comparator threshold" `Quick test_comparator_threshold;
      Alcotest.test_case "comparator ratio" `Quick test_comparator_ratio;
      Alcotest.test_case "comparator min multiplicity" `Quick test_comparator_min_multiplicity;
      Alcotest.test_case "similar either side" `Quick test_similar_either_side;
      Alcotest.test_case "matching passes" `Quick test_matching_passes;
      Alcotest.test_case "dna from trace" `Quick test_dna_from_trace;
      Alcotest.test_case "dna rename-insensitive" `Quick test_dna_insensitive_to_renaming;
      Alcotest.test_case "dna sexpr roundtrip" `Quick test_dna_sexpr_roundtrip;
      Alcotest.test_case "dna extract == n=3 reference: workloads" `Quick
        test_extract_reference_workloads;
      Alcotest.test_case "dna extract == n=3 reference: distilled corpus" `Quick
        test_extract_reference_distilled;
      Alcotest.test_case "dna extract == n=3 reference: VDCs and variants" `Quick
        test_extract_reference_vdcs;
      qtest prop_extract_reference_generated;
      Alcotest.test_case "db lifecycle" `Quick test_db_lifecycle;
      Alcotest.test_case "db save/load" `Quick test_db_save_load;
      Alcotest.test_case "delta counts below 1 rejected" `Quick
        test_delta_rejects_non_positive_counts;
      Alcotest.test_case "truncated db fails closed at every offset" `Quick
        test_db_truncation_fails_closed;
      Alcotest.test_case "empty db: no analyzer" `Quick test_empty_db_no_analyzer;
      Alcotest.test_case "monitor records" `Quick test_monitor_records;
      Alcotest.test_case "forbid on mandatory pass" `Quick test_forbid_on_mandatory_pass;
      Alcotest.test_case "detects independent implementation" `Quick test_detection_flags_dangerous_pass;
      Alcotest.test_case "cold script harvests nothing" `Quick test_harvest_cold_script_empty;
      Alcotest.test_case "engine forbid end-to-end" `Quick test_engine_forbid_end_to_end;
      Alcotest.test_case "custom params plumbing" `Quick test_custom_params_flow_through;
      Alcotest.test_case "monitor records per function" `Quick test_monitor_newest_first;
    ] )
