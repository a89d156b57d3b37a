(* Tests for the runtime: value coercions, flat heap, builtins. *)

open Helpers
module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Heap = Jitbull_runtime.Heap
module Realm = Jitbull_runtime.Realm
module Builtins = Jitbull_runtime.Builtins
module Errors = Jitbull_runtime.Errors
module Ast = Jitbull_frontend.Ast

let num f = Value.Number f

let test_to_number () =
  let cases =
    [
      (Value.Number 3.5, 3.5);
      (Value.Bool true, 1.0);
      (Value.Bool false, 0.0);
      (Value.Null, 0.0);
      (Value.String "", 0.0);
      (Value.String "  42 ", 42.0);
    ]
  in
  List.iter
    (fun (v, expected) ->
      Alcotest.(check (float 0.0)) (Value.to_display v) expected (Value_ops.to_number v))
    cases;
  check_bool "undefined is NaN" true (Float.is_nan (Value_ops.to_number Value.Undefined));
  check_bool "junk string is NaN" true (Float.is_nan (Value_ops.to_number (Value.String "zz")))

let test_to_boolean () =
  check_bool "0 falsy" false (Value_ops.to_boolean (num 0.0));
  check_bool "NaN falsy" false (Value_ops.to_boolean (num Float.nan));
  check_bool "'' falsy" false (Value_ops.to_boolean (Value.String ""));
  check_bool "null falsy" false (Value_ops.to_boolean Value.Null);
  check_bool "array truthy" true (Value_ops.to_boolean (Value.Array 0));
  check_bool "'0' truthy" true (Value_ops.to_boolean (Value.String "0"))

let test_int32 () =
  Alcotest.(check int32) "wraps" (-294967296l) (Value_ops.to_int32 4000000000.0);
  Alcotest.(check int32) "negative" (-5l) (Value_ops.to_int32 (-5.9));
  Alcotest.(check int32) "nan is 0" 0l (Value_ops.to_int32 Float.nan);
  Alcotest.(check int32) "inf is 0" 0l (Value_ops.to_int32 Float.infinity);
  Alcotest.(check (float 0.0)) "uint32 of -1" 4294967295.0 (Value_ops.to_uint32 (-1.0))

let test_to_index () =
  check_bool "3 ok" true (Value_ops.to_index (num 3.0) = Some 3);
  check_bool "negative rejected" true (Value_ops.to_index (num (-1.0)) = None);
  check_bool "fraction rejected" true (Value_ops.to_index (num 1.5) = None);
  check_bool "string rejected" true (Value_ops.to_index (Value.String "1") = None)

let test_binary_add () =
  check_bool "num add" true (Value_ops.binary Ast.Add (num 1.0) (num 2.0) = num 3.0);
  check_bool "string concat" true
    (Value_ops.binary Ast.Add (Value.String "a") (num 1.0) = Value.String "a1");
  check_bool "concat right" true
    (Value_ops.binary Ast.Add (num 1.0) (Value.String "a") = Value.String "1a")

let test_equality () =
  check_bool "1 == '1'" true (Value_ops.loose_equal (num 1.0) (Value.String "1"));
  check_bool "null == undefined" true (Value_ops.loose_equal Value.Null Value.Undefined);
  check_bool "null !== undefined" false (Value_ops.strict_equal Value.Null Value.Undefined);
  check_bool "NaN != NaN" false (Value_ops.loose_equal (num Float.nan) (num Float.nan));
  check_bool "arrays by handle" true (Value_ops.strict_equal (Value.Array 2) (Value.Array 2));
  check_bool "different arrays" false (Value_ops.strict_equal (Value.Array 2) (Value.Array 3))

let test_comparisons () =
  check_bool "string lt" true (Value_ops.binary Ast.Lt (Value.String "abc") (Value.String "abd") = Value.Bool true);
  check_bool "NaN compare false" true (Value_ops.binary Ast.Le (num Float.nan) (num 1.0) = Value.Bool false);
  check_bool "shift" true (Value_ops.binary Ast.Shl (num 1.0) (num 4.0) = num 16.0);
  check_bool "ushr" true (Value_ops.binary Ast.Ushr (num (-8.0)) (num 28.0) = num 15.0)

(* ---- heap ---- *)

let test_heap_alloc_adjacent () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:4 in
  let b = Heap.alloc_array h ~length:4 in
  check_int "adjacent regions" (Heap.base_addr h a + 6) (Heap.base_addr h b);
  check_int "length" 4 (Heap.length h a);
  check_int "capacity" 4 (Heap.capacity h a)

let test_heap_checked_access () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  Heap.set h a 0 (num 7.0);
  check_bool "get in bounds" true (Heap.get h a 0 = num 7.0);
  check_bool "get OOB is undefined" true (Heap.get h a 5 = Value.Undefined);
  check_bool "get negative is undefined" true (Heap.get h a (-1) = Value.Undefined);
  (* append one-past-end grows *)
  Heap.set h a 2 (num 9.0);
  check_int "append grew" 3 (Heap.length h a);
  (* sparse write ignored *)
  Heap.set h a 10 (num 1.0);
  check_int "sparse ignored" 3 (Heap.length h a)

let test_heap_shrink_reclaims () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:10 in
  let base = Heap.base_addr h a in
  Heap.set_length h a 2;
  check_int "length shrunk" 2 (Heap.length h a);
  check_int "capacity shrunk" 2 (Heap.capacity h a);
  (* next allocation lands in the reclaimed tail, adjacent to the shrunk
     array — the CVE-2019-17026 precondition *)
  let victim = Heap.alloc_array h ~length:3 in
  check_int "victim in reclaimed space" (base + 4) (Heap.base_addr h victim)

let test_heap_shrink_keeps_stale () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:4 in
  Heap.set h a 3 (num 99.0);
  (* pop is a lazy shrink: the popped cell is not cleared and remains
     readable through the unchecked accessor (the stale-data leak JITed
     code without its check can observe) *)
  ignore (Heap.pop h a);
  check_int "popped" 3 (Heap.length h a);
  check_bool "stale data leaks via unchecked read" true (Heap.get_unchecked h a 3 = num 99.0)

let test_heap_grow_reallocates () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let old_base = Heap.base_addr h a in
  Heap.set h a 0 (num 5.0);
  Heap.set_length h a 50;
  check_bool "moved" true (Heap.base_addr h a <> old_base);
  check_bool "contents preserved" true (Heap.get h a 0 = num 5.0);
  check_bool "new cells undefined" true (Heap.get h a 30 = Value.Undefined)

let test_heap_push_pop () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:1 in
  Heap.set h a 0 (num 1.0);
  Heap.push h a (num 2.0);
  Heap.push h a (num 3.0);
  check_int "pushed" 3 (Heap.length h a);
  check_bool "pop last" true (Heap.pop h a = num 3.0);
  check_int "popped" 2 (Heap.length h a);
  ignore (Heap.pop h a);
  ignore (Heap.pop h a);
  check_bool "pop empty" true (Heap.pop h a = Value.Undefined)

let test_heap_unchecked_corruption () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let b = Heap.alloc_array h ~length:2 in
  (* OOB write through a corrupts b's length header *)
  Heap.set_unchecked h a 2 (num 1000000.0);
  check_int "neighbour length corrupted" 1000000 (Heap.length h b)

let test_heap_unchecked_crash () =
  let h = Heap.create ~size_limit:256 () in
  let a = Heap.alloc_array h ~length:2 in
  (match Heap.set_unchecked h a 100000 (num 1.0) with
  | exception Errors.Crash _ -> ()
  | () -> Alcotest.fail "expected crash");
  match Heap.get_unchecked h a (-100000) with
  | exception Errors.Crash _ -> ()
  | _ -> Alcotest.fail "expected crash on negative"

let test_heap_sentinel () =
  let h = Heap.create ~size_limit:1024 () in
  let addr = Heap.alloc_sentinel h in
  check_int "sentinel at top" 1022 addr;
  Heap.check_sentinel h;
  check_bool "intact" true (Heap.sentinel_intact h);
  (* a corrupted-length array can reach it *)
  let a = Heap.alloc_array h ~length:2 in
  Heap.set_unchecked h a (addr - Heap.base_addr h a - 2) (num 1337.0);
  check_bool "tampered" false (Heap.sentinel_intact h);
  match Heap.check_sentinel h with
  | exception Errors.Shellcode_executed _ -> ()
  | () -> Alcotest.fail "expected shellcode detection"

let test_heap_exhaustion () =
  let h = Heap.create ~size_limit:64 () in
  match
    for _ = 1 to 100 do
      ignore (Heap.alloc_array h ~length:4)
    done
  with
  | exception Errors.Heap_exhausted -> ()
  | () -> Alcotest.fail "expected exhaustion"

let test_heap_corrupted_header_is_tolerated () =
  let h = Heap.create ~size_limit:4096 () in
  let a = Heap.alloc_array h ~length:2 in
  let b = Heap.alloc_array h ~length:2 in
  (* write a non-number over b's length header *)
  Heap.set_unchecked h a 2 (Value.String "junk");
  check_int "corrupted header reads as 0" 0 (Heap.length h b)

(* ---- builtins ---- *)

let realm () = Realm.create ~size_limit:4096 ()

let test_math_builtins () =
  let r = realm () in
  check_bool "floor" true (Builtins.call_namespace r "Math" "floor" [ num 3.7 ] = num 3.0);
  check_bool "max multi" true (Builtins.call_namespace r "Math" "max" [ num 1.0; num 9.0; num 4.0 ] = num 9.0);
  check_bool "min empty" true (Builtins.call_namespace r "Math" "min" [] = num Float.infinity);
  check_bool "pow" true (Builtins.call_namespace r "Math" "pow" [ num 2.0; num 10.0 ] = num 1024.0);
  match Builtins.call_namespace r "Math" "nosuch" [] with
  | exception Errors.Type_error _ -> ()
  | _ -> Alcotest.fail "unknown Math function should raise"

let test_string_methods () =
  let r = realm () in
  (match Builtins.call_method r (Value.String "hello") "charCodeAt" [ num 1.0 ] with
  | `Value v -> check_bool "charCodeAt" true (v = num 101.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.String "hello") "indexOf" [ Value.String "ll" ] with
  | `Value v -> check_bool "indexOf" true (v = num 2.0)
  | _ -> Alcotest.fail "expected value");
  match Builtins.call_method r (Value.String "hello") "substring" [ num 1.0; num 3.0 ] with
  | `Value v -> check_bool "substring" true (v = Value.String "el")
  | _ -> Alcotest.fail "expected value"

let test_array_methods () =
  let r = realm () in
  let h = Heap.alloc_array r.Realm.heap ~length:0 in
  (match Builtins.call_method r (Value.Array h) "push" [ num 1.0; num 2.0 ] with
  | `Value v -> check_bool "push returns length" true (v = num 2.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.Array h) "indexOf" [ num 2.0 ] with
  | `Value v -> check_bool "indexOf" true (v = num 1.0)
  | _ -> Alcotest.fail "expected value");
  (match Builtins.call_method r (Value.Array h) "join" [ Value.String "-" ] with
  | `Value v -> check_bool "join" true (v = Value.String "1-2")
  | _ -> Alcotest.fail "expected value");
  match Builtins.call_method r (Value.Array h) "slice" [ num 1.0 ] with
  | `Value (Value.Array h2) -> check_int "slice length" 1 (Heap.length r.Realm.heap h2)
  | _ -> Alcotest.fail "expected array"

let test_member_access () =
  let r = realm () in
  let h = Heap.alloc_array r.Realm.heap ~length:5 in
  check_bool "array length" true (Builtins.get_member r (Value.Array h) "length" = num 5.0);
  check_bool "string length" true (Builtins.get_member r (Value.String "abc") "length" = num 3.0);
  Builtins.set_member r (Value.Array h) "length" (num 2.0);
  check_int "length write resizes" 2 (Heap.length r.Realm.heap h);
  let obj = Hashtbl.create 4 in
  Builtins.set_member r (Value.Object obj) "x" (num 1.0);
  check_bool "object field" true (Builtins.get_member r (Value.Object obj) "x" = num 1.0);
  check_bool "missing field undefined" true
    (Builtins.get_member r (Value.Object obj) "nope" = Value.Undefined)

let test_user_function_property () =
  let r = realm () in
  let obj = Hashtbl.create 4 in
  Hashtbl.replace obj "m" (Value.Function 3);
  match Builtins.call_method r (Value.Object obj) "m" [ num 1.0 ] with
  | `User_function (3, [ v ]) -> check_bool "args forwarded" true (v = num 1.0)
  | _ -> Alcotest.fail "expected user function dispatch"

(* The list allocator the heap used before its free list became two
   arrays, kept as the reference: first-fit from the list head (the most
   recently freed region), the remainder left in the region's place. Only
   addresses are modelled — each array is (base, length, capacity). *)
module Old_heap = struct
  type region = { addr : int; size : int }

  type t = {
    limit : int;
    mutable brk : int;
    mutable free : region list;
    arrays : (int, int * int * int) Hashtbl.t;
  }

  let create limit = { limit; brk = 0; free = []; arrays = Hashtbl.create 16 }

  let alloc_cells t n =
    let rec take acc = function
      | [] -> None
      | r :: rest when r.size >= n ->
        let remainder =
          if r.size > n then [ { addr = r.addr + n; size = r.size - n } ] else []
        in
        t.free <- List.rev_append acc (remainder @ rest);
        Some r.addr
      | r :: rest -> take (r :: acc) rest
    in
    match take [] t.free with
    | Some addr -> addr
    | None ->
      if t.brk + n > t.limit then raise Errors.Heap_exhausted;
      let base = t.brk in
      t.brk <- t.brk + n;
      base

  let free_cells t addr n = if n > 0 then t.free <- { addr; size = n } :: t.free

  let alloc_array t h ~length =
    let cap = max length 1 in
    Hashtbl.replace t.arrays h (alloc_cells t (2 + cap), length, cap)

  let set_length t h n =
    let n = max n 0 in
    let base, _, cap = Hashtbl.find t.arrays h in
    if n <= cap then begin
      let new_cap = max n 1 in
      if new_cap < cap then free_cells t (base + 2 + new_cap) (cap - new_cap);
      Hashtbl.replace t.arrays h (base, n, min cap new_cap)
    end
    else begin
      let new_cap = max n (2 * cap) in
      let new_base = alloc_cells t (2 + new_cap) in
      Hashtbl.replace t.arrays h (new_base, n, new_cap);
      free_cells t base (2 + cap)
    end

  let push t h =
    let base, len, cap = Hashtbl.find t.arrays h in
    if len < cap then Hashtbl.replace t.arrays h (base, len + 1, cap)
    else set_length t h (len + 1)

  let pop t h =
    let base, len, cap = Hashtbl.find t.arrays h in
    if len > 0 then Hashtbl.replace t.arrays h (base, len - 1, cap)
end

type heap_op = Alloc of int | Set_length of int * int | Push of int | Pop of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun n -> Alloc n) (int_bound 24));
        (3, map2 (fun h n -> Set_length (h, n)) nat (int_bound 60));
        (3, map (fun h -> Push h) nat);
        (1, map (fun h -> Pop h) nat);
      ])

let show_heap_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Set_length (h, n) -> Printf.sprintf "set_length #%d %d" h n
  | Push h -> Printf.sprintf "push #%d" h
  | Pop h -> Printf.sprintf "pop #%d" h

(* Same base address for every handle and the same bump mark after every
   step, exhaustion included (a 1024-cell heap runs out now and then). *)
let qcheck_heap_free_list_matches_list_model =
  QCheck.Test.make ~count:(qcheck_count 300)
    ~name:"heap free list agrees with the list allocator"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
       QCheck.Gen.(list_size (int_range 1 150) heap_op_gen))
    (fun ops ->
      let limit = 1024 in
      let heap = Heap.create ~size_limit:limit () in
      let model = Old_heap.create limit in
      let handles = ref 0 in
      let step op =
        let pick h = h mod !handles in
        let run real old =
          let r = match real () with () -> true | exception Errors.Heap_exhausted -> false in
          let o = match old () with () -> true | exception Errors.Heap_exhausted -> false in
          r = o
        in
        match op with
        | Alloc length ->
          run
            (fun () -> ignore (Heap.alloc_array heap ~length))
            (fun () -> Old_heap.alloc_array model !handles ~length)
          && begin
               if Hashtbl.mem model.Old_heap.arrays !handles then incr handles;
               true
             end
        | _ when !handles = 0 -> true
        | Set_length (h, n) ->
          let h = pick h in
          run (fun () -> Heap.set_length heap h n) (fun () -> Old_heap.set_length model h n)
        | Push h ->
          let h = pick h in
          run (fun () -> Heap.push heap h Value.Null) (fun () -> Old_heap.push model h)
        | Pop h ->
          let h = pick h in
          run (fun () -> ignore (Heap.pop heap h)) (fun () -> Old_heap.pop model h)
      in
      List.for_all
        (fun op ->
          step op
          && Heap.cells_used heap = model.Old_heap.brk
          && List.for_all
               (fun h ->
                 let base, _, _ = Hashtbl.find model.Old_heap.arrays h in
                 Heap.base_addr heap h = base)
               (List.init !handles Fun.id))
        ops)

let suite =
  ( "runtime",
    [
      Alcotest.test_case "to_number" `Quick test_to_number;
      Alcotest.test_case "to_boolean" `Quick test_to_boolean;
      Alcotest.test_case "int32/uint32" `Quick test_int32;
      Alcotest.test_case "to_index" `Quick test_to_index;
      Alcotest.test_case "binary add" `Quick test_binary_add;
      Alcotest.test_case "equality" `Quick test_equality;
      Alcotest.test_case "comparisons/shifts" `Quick test_comparisons;
      Alcotest.test_case "heap adjacency" `Quick test_heap_alloc_adjacent;
      Alcotest.test_case "heap checked access" `Quick test_heap_checked_access;
      Alcotest.test_case "heap shrink reclaims" `Quick test_heap_shrink_reclaims;
      Alcotest.test_case "heap stale data" `Quick test_heap_shrink_keeps_stale;
      Alcotest.test_case "heap grow reallocates" `Quick test_heap_grow_reallocates;
      Alcotest.test_case "heap push/pop" `Quick test_heap_push_pop;
      Alcotest.test_case "heap unchecked corruption" `Quick test_heap_unchecked_corruption;
      Alcotest.test_case "heap unchecked crash" `Quick test_heap_unchecked_crash;
      Alcotest.test_case "heap sentinel" `Quick test_heap_sentinel;
      Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
      Alcotest.test_case "heap corrupted header" `Quick test_heap_corrupted_header_is_tolerated;
      qtest qcheck_heap_free_list_matches_list_model;
      Alcotest.test_case "Math builtins" `Quick test_math_builtins;
      Alcotest.test_case "string methods" `Quick test_string_methods;
      Alcotest.test_case "array methods" `Quick test_array_methods;
      Alcotest.test_case "member access" `Quick test_member_access;
      Alcotest.test_case "user function property" `Quick test_user_function_property;
    ] )
