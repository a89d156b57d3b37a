(* The native Ion tier: lowers allocated LIR to x86-64 and runs it over
   an unboxed NaN-boxed register file.

   Design: generated code covers the numeric core — const/move/guards/
   bounds checks/float arithmetic/int32 bit ops and %/compares/branches,
   plus an array's elements handle — and *exits to the host* for
   everything else.  Every exit returns a packed
   [(lir_pc lsl 4) lor reason] in rax; the host performs the operation on
   decoded values (sharing the executor's raw_number/Value_ops semantics
   bit for bit, including the type-confusion behaviour a removed guard
   exposes) and re-enters the code at the byte offset recorded for the
   next LIR pc.  Guard failures exit with a bailout reason; the host
   formats the executor-identical message and raises {!Lir.Bailout}, so
   the engine's deopt path is tier-agnostic.

   Fast paths never assume well-typedness the executor would not: each
   checks its operands are numbers (one unsigned compare against the
   NaN-box tag boundary) and otherwise defers to the host, so a
   type-confused register flows through raw_number exactly as in the
   executor — the differential oracle must not be able to tell the tiers
   apart, even under vulnerable go/no-go configurations. *)

module Value = Jitbull_runtime.Value
module Value_ops = Jitbull_runtime.Value_ops
module Heap = Jitbull_runtime.Heap
module Realm = Jitbull_runtime.Realm
module Builtins = Jitbull_runtime.Builtins
module Errors = Jitbull_runtime.Errors
module Mir = Jitbull_mir.Mir
module Ast = Jitbull_frontend.Ast
module Lir = Jitbull_lir.Lir
module Executor = Jitbull_lir.Executor
module Profile = Jitbull_obs.Profile

(* Ticks landing in the host-operation gate (decode, host op, re-enter)
   rather than in a registered code page. *)
let prof_host = Profile.tag "native;host"

let available () = Exec_mem.available

(* JITBULL_NO_NATIVE forces the LIR-executor fallback; unset, "" and "0"
   leave the backend on (tests toggle via putenv). *)
let forced_off () =
  match Sys.getenv_opt "JITBULL_NO_NATIVE" with
  | Some s -> s <> "" && s <> "0"
  | None -> false

let enabled () = available () && not (forced_off ())

(* Exit reasons (low 4 bits of the packed exit code). *)
let reason_return = 0
let reason_hostop = 1
let reason_bailout = 2
let reason_test = 3

(* Exit counters, one int array per function: one slot per exit reason,
   then one hostop slot per exit kind — the LIR kinds a hostop exit can
   come from, [Kbin] split by operator so a [%] exit is told apart from
   a shift. *)
let exit_kinds : Lir.kind array =
  let bins =
    Mir.[ NSub; NMul; NDiv; NMod; NBit_and; NBit_or; NBit_xor; NShl; NShr; NUshr ]
  in
  Array.of_list
    (List.map (fun op -> Lir.Kbin op) bins
    @ Lir.
        [
          Kbounds_check; Kadd; Kcompare Mir.CLt; Knegate; Kbitnot; Knot; Ktypeof;
          Ktonumber; Knew_array; Knew_object; Kelements; Kinit_length;
          Kload_element; Kstore_element; Karray_length; Kset_array_length;
          Karray_push; Karray_pop; Kget_prop; Kset_prop; Kget_index_gen;
          Kset_index_gen; Kload_global; Kstore_global; Kdeclare_global; Kcall;
          Kcall_method;
        ])

let exit_kind_name = function
  | Lir.Kbin op -> Mir.opcode_name (Mir.Bin_num op)
  | k -> Lir.kind_name k

let exit_counter_names =
  Array.append
    [| "return"; "hostop"; "bailout"; "test" |]
    (Array.map (fun k -> "hostop." ^ exit_kind_name k) exit_kinds)

(* Counter slot of a hostop exit from kind [k]. *)
let slot_of_kind =
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun j k -> Hashtbl.replace tbl (exit_kind_name k) (4 + j)) exit_kinds;
  fun k -> Hashtbl.find tbl (exit_kind_name k)

type exit_totals = {
  t_return : int;
  t_hostop : int;
  t_bailout : int;
  t_test : int;
  t_hostop_kinds : (string * int) list;
}

(* A pooled activation: the C-allocated register file plus the OCaml
   side table that keeps boxed values GC-rooted while their NaN-boxed
   references live in the regfile. *)
type activation = {
  regs : Exec_mem.regfile;
  side : Nanbox.side;
}

type code = {
  func : Lir.func;
  region : Exec_mem.region;
  offsets : int array;  (* LIR pc -> byte offset (re-entry points) *)
  n_slots : int;  (* n_regs + arity arg-staging slots *)
  const_preload : Value.t array;  (* boxed consts, side slots [0..) *)
  counts : int array;  (* exit counters, laid out as [exit_counter_names] *)
  drained : int array;  (* [counts] as of the last [drain] *)
  exit_slot : int array;  (* LIR pc -> hostop counter slot, -1 if it never exits *)
  prof_slot : int;  (* sampling-profiler page-table slot, -1 if none *)
  mutable pool : activation list;
  mutable active : int;  (* live activations (recursion depth) *)
  mutable dead : bool;  (* released; unmap when [active] drains *)
}

let code_size code = code.region.Exec_mem.code_size
let region code = code.region

let exits code =
  let c = code.counts in
  let kinds = ref [] in
  for j = Array.length c - 1 downto 4 do
    if c.(j) > 0 then kinds := (exit_kind_name exit_kinds.(j - 4), c.(j)) :: !kinds
  done;
  {
    t_return = c.(reason_return);
    t_hostop = c.(reason_hostop);
    t_bailout = c.(reason_bailout);
    t_test = c.(reason_test);
    t_hostop_kinds = !kinds;
  }

let drain code f =
  for j = 0 to Array.length code.counts - 1 do
    let n = code.counts.(j) - code.drained.(j) in
    if n > 0 then begin
      code.drained.(j) <- code.counts.(j);
      f j n
    end
  done

(* ---- compilation ---- *)

let compile (f : Lir.func) : code =
  let asm = Asm.create () in
  let insts = f.Lir.code in
  let len = Array.length insts in
  let n_regs = max f.Lir.n_regs 1 in
  let n_slots = n_regs + f.Lir.arity in
  (* Constants become immediates; heap-shaped ones are preloaded into
     the side table at fixed indices, so their NaN-boxed bits are also
     compile-time immediates. *)
  let preload = ref [] in
  let n_preload = ref 0 in
  let const_bits =
    Array.map
      (fun (v : Value.t) ->
        match v with
        | Value.String _ | Value.Object _ | Value.Builtin _ ->
          let k = !n_preload in
          incr n_preload;
          preload := v :: !preload;
          Nanbox.tagged Nanbox.tag_side k
        | v ->
          let scratch = Nanbox.side_create () in
          Nanbox.encode scratch v)
      f.Lir.consts
  in
  let pc_labels = Array.init len (fun _ -> Asm.new_label asm) in
  let offsets = Array.make len 0 in
  (* Exit stubs are shared per (pc, reason) and emitted after the main
     body, in first-use order, so the layout is deterministic. *)
  let exit_tbl = Hashtbl.create 16 in
  let exit_order = ref [] in
  let exit_label pc reason =
    match Hashtbl.find_opt exit_tbl (pc, reason) with
    | Some l -> l
    | None ->
      let l = Asm.new_label asm in
      Hashtbl.add exit_tbl (pc, reason) l;
      exit_order := ((pc, reason), l) :: !exit_order;
      l
  in
  let exit_slot = Array.make len (-1) in
  let exit_now pc reason =
    if reason = reason_hostop then exit_slot.(pc) <- slot_of_kind insts.(pc).Lir.kind;
    Asm.mov_eax_imm asm ((pc lsl 4) lor reason);
    Asm.ret asm
  in
  let store_dst (i : Lir.inst) r =
    if i.Lir.dst >= 0 then Asm.mov_slot_r asm i.Lir.dst r
  in
  (* gpr <- slot; exit unless the bits are a number.  Leaves the tag
     boundary in r11 for follow-up operand checks. *)
  let load_number slot gpr fail =
    Asm.mov_r_slot asm gpr slot;
    Asm.movabs asm Asm.r11 Nanbox.bits_min_tag;
    Asm.cmp_rr asm gpr Asm.r11;
    Asm.jcc asm Asm.cc_ae fail
  in
  let check_number gpr fail =
    (* r11 still holds the boundary *)
    Asm.cmp_rr asm gpr Asm.r11;
    Asm.jcc asm Asm.cc_ae fail
  in
  (* dst64 <- exactly-representable int32 of the double whose bits are in
     [src]; branches to [fail] when the value does not round-trip or
     overflows int32 (clobbers xmm0, xmm1, r11). *)
  let to_int32_exact ~src ~dst fail =
    Asm.movq_x_r asm Asm.xmm0 src;
    Asm.cvttsd2si asm dst Asm.xmm0;
    Asm.cvtsi2sd asm Asm.xmm1 dst;
    Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
    Asm.jcc asm Asm.cc_p fail;
    Asm.jcc asm Asm.cc_ne fail;
    Asm.movsxd asm ~dst:Asm.r11 ~src:dst;
    Asm.cmp_rr asm Asm.r11 dst;
    Asm.jcc asm Asm.cc_ne fail
  in
  (* Boxed boolean from the flag byte in al. *)
  let box_bool (i : Lir.inst) =
    Asm.movzx_eax_al asm;
    Asm.movabs asm Asm.rcx Nanbox.bits_false;
    Asm.add_rr asm Asm.rax Asm.rcx;
    store_dst i Asm.rax
  in
  (* al <- truthiness of slot [a]; side-table refs (strings/objects/
     builtins) jump to [xl] for the host to decide. *)
  let truthiness a_slot xl =
    Asm.mov_r_slot asm Asm.rax a_slot;
    Asm.movabs asm Asm.r11 Nanbox.bits_min_tag;
    Asm.cmp_rr asm Asm.rax Asm.r11;
    let tagged_l = Asm.new_label asm in
    let truthy_l = Asm.new_label asm in
    let done_l = Asm.new_label asm in
    Asm.jcc asm Asm.cc_ae tagged_l;
    (* number: falsy iff +0, -0 or NaN — ucomisd vs 0 sets ZF for all *)
    Asm.movq_x_r asm Asm.xmm0 Asm.rax;
    Asm.xorpd asm Asm.xmm1 Asm.xmm1;
    Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
    Asm.setcc asm Asm.cc_ne Asm.rax;
    Asm.jmp asm done_l;
    Asm.bind asm tagged_l;
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.rax;
    Asm.shr_r_imm asm Asm.rcx Nanbox.tag_shift;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_side;
    Asm.jcc asm Asm.cc_e xl;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_singleton;
    Asm.jcc asm Asm.cc_ne truthy_l;
    (* singleton: only [true] (payload 3) is truthy *)
    Asm.cmp_r32_imm asm Asm.rax 3;
    Asm.setcc asm Asm.cc_e Asm.rax;
    Asm.jmp asm done_l;
    Asm.bind asm truthy_l;
    (* arrays and functions are always truthy *)
    Asm.mov_r8_imm asm Asm.rax 1;
    Asm.bind asm done_l
  in
  (* dst <- a when a is array-tagged; otherwise jump to [fail]. *)
  let array_move (i : Lir.inst) fail =
    Asm.mov_r_slot asm Asm.rax i.Lir.a;
    Asm.mov_rr asm ~dst:Asm.rcx ~src:Asm.rax;
    Asm.shr_r_imm asm Asm.rcx Nanbox.tag_shift;
    Asm.cmp_r32_imm asm Asm.rcx Nanbox.tag_array;
    Asm.jcc asm Asm.cc_ne fail;
    store_dst i Asm.rax
  in
  Array.iteri
    (fun pc (i : Lir.inst) ->
      offsets.(pc) <- Asm.pos asm;
      Asm.bind asm pc_labels.(pc);
      match i.Lir.kind with
      | Lir.Kconst ->
        if i.Lir.dst >= 0 then begin
          Asm.movabs asm Asm.rax const_bits.(i.Lir.imm);
          store_dst i Asm.rax
        end
      | Lir.Kparam ->
        if i.Lir.dst >= 0 then begin
          if i.Lir.imm >= 0 && i.Lir.imm < f.Lir.arity then
            Asm.mov_r_slot asm Asm.rax (n_regs + i.Lir.imm)
          else Asm.movabs asm Asm.rax Nanbox.bits_undefined;
          store_dst i Asm.rax
        end
      | Lir.Kmove ->
        if i.Lir.dst >= 0 then begin
          Asm.mov_r_slot asm Asm.rax i.Lir.a;
          store_dst i Asm.rax
        end
      | Lir.Kunbox_number ->
        load_number i.Lir.a Asm.rax (exit_label pc reason_bailout);
        store_dst i Asm.rax
      | Lir.Kunbox_int32 ->
        let bail = exit_label pc reason_bailout in
        load_number i.Lir.a Asm.rax bail;
        (* the executor accepts integers with |n| <= 2^31 (inclusive);
           the round-trip handles -0.0 (exact) and NaN (unordered) *)
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.cvttsd2si asm Asm.rcx Asm.xmm0;
        Asm.cvtsi2sd asm Asm.xmm1 Asm.rcx;
        Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
        Asm.jcc asm Asm.cc_p bail;
        Asm.jcc asm Asm.cc_ne bail;
        Asm.movabs asm Asm.r11 2147483648L;
        Asm.cmp_rr asm Asm.rcx Asm.r11;
        Asm.jcc asm Asm.cc_g bail;
        Asm.movabs asm Asm.r11 (-2147483648L);
        Asm.cmp_rr asm Asm.rcx Asm.r11;
        Asm.jcc asm Asm.cc_l bail;
        store_dst i Asm.rax
      | Lir.Kguard_array ->
        array_move i (exit_label pc reason_bailout)
      | Lir.Kelements ->
        (* the elements handle of an array is the array; anything else
           (a type-confused register) goes through raw_number on the host *)
        array_move i (exit_label pc reason_hostop)
      | Lir.Kbounds_check ->
        (* numbers-only fast path; anything else needs raw_number, so the
           host handles it (and formats the bailout message if it fails).
           Executor semantics: fail iff idx < 0 || idx >= len — a NaN
           index or length makes both comparisons false, i.e. passes. *)
        let bail = exit_label pc reason_bailout in
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.xorpd asm Asm.xmm1 Asm.xmm1;
        Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
        let not_neg = Asm.new_label asm in
        Asm.jcc asm Asm.cc_p not_neg;
        Asm.jcc asm Asm.cc_b bail;
        Asm.bind asm not_neg;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
        Asm.jcc asm Asm.cc_ae bail;
        store_dst i Asm.rax
      | Lir.Kadd ->
        (* generic JS +: only the number+number case stays native *)
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        Asm.addsd asm Asm.xmm0 Asm.xmm1;
        Asm.movq_r_x asm Asm.rax Asm.xmm0;
        store_dst i Asm.rax
      | Lir.Kbin op -> (
        match op with
        | Mir.NSub | Mir.NMul | Mir.NDiv ->
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          Asm.movq_x_r asm Asm.xmm0 Asm.rax;
          Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
          (match op with
          | Mir.NSub -> Asm.subsd asm Asm.xmm0 Asm.xmm1
          | Mir.NMul -> Asm.mulsd asm Asm.xmm0 Asm.xmm1
          | _ -> Asm.divsd asm Asm.xmm0 Asm.xmm1);
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          store_dst i Asm.rax
        | Mir.NMod ->
          (* int32 fast path only, like the bit ops.  idiv's remainder has
             the dividend's sign, as fmod's does; the operands are
             sign-extended to 64 bits so INT32_MIN % -1 cannot trap.  A
             zero (or -0) divisor is NaN: the host's job.  A zero
             remainder must keep the dividend's sign (-4 % 2 and -0 % 3
             are -0), so the dividend's sign bit is OR-ed into the result
             — a no-op for a nonzero remainder, which already has it. *)
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          to_int32_exact ~src:Asm.rax ~dst:Asm.r8 host;
          to_int32_exact ~src:Asm.rdx ~dst:Asm.rcx host;
          Asm.cmp_r32_imm asm Asm.rcx 0;
          Asm.jcc asm Asm.cc_e host;
          Asm.mov_rr asm ~dst:Asm.r11 ~src:Asm.rax;
          Asm.mov_rr asm ~dst:Asm.rax ~src:Asm.r8;
          Asm.cqo asm;
          Asm.idiv_r asm Asm.rcx;
          Asm.cvtsi2sd asm Asm.xmm0 Asm.rdx;
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          Asm.shr_r_imm asm Asm.r11 63;
          Asm.shl_r_imm asm Asm.r11 63;
          Asm.or_rr asm Asm.rax Asm.r11;
          store_dst i Asm.rax
        | Mir.NBit_and | Mir.NBit_or | Mir.NBit_xor | Mir.NShl | Mir.NShr
        | Mir.NUshr ->
          (* int32 fast path only when both operands are exactly
             representable int32s; to_int32's modular wrap for large or
             fractional doubles is the host's job *)
          let host = exit_label pc reason_hostop in
          load_number i.Lir.a Asm.rax host;
          Asm.mov_r_slot asm Asm.rdx i.Lir.b;
          check_number Asm.rdx host;
          to_int32_exact ~src:Asm.rax ~dst:Asm.r8 host;
          to_int32_exact ~src:Asm.rdx ~dst:Asm.rcx host;
          (match op with
          | Mir.NBit_and -> Asm.and_rr32 asm Asm.r8 Asm.rcx
          | Mir.NBit_or -> Asm.or_rr32 asm Asm.r8 Asm.rcx
          | Mir.NBit_xor -> Asm.xor_rr32 asm Asm.r8 Asm.rcx
          | Mir.NShl -> Asm.shl_cl32 asm Asm.r8
          | Mir.NShr -> Asm.sar_cl32 asm Asm.r8  (* JS >> is arithmetic *)
          | _ -> Asm.shr_cl32 asm Asm.r8);
          (* 32-bit shifts mask the count to 5 bits in hardware, exactly
             JS's [count land 31] *)
          (match op with
          | Mir.NUshr ->
            (* the 32-bit result zero-extends: already an exact uint32 *)
            Asm.cvtsi2sd asm Asm.xmm0 Asm.r8
          | _ ->
            Asm.movsxd asm ~dst:Asm.rax ~src:Asm.r8;
            Asm.cvtsi2sd asm Asm.xmm0 Asm.rax);
          Asm.movq_r_x asm Asm.rax Asm.xmm0;
          store_dst i Asm.rax)
      | Lir.Kcompare cop ->
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        Asm.mov_r_slot asm Asm.rdx i.Lir.b;
        check_number Asm.rdx host;
        Asm.movq_x_r asm Asm.xmm0 Asm.rax;
        Asm.movq_x_r asm Asm.xmm1 Asm.rdx;
        (* ucomisd only sets CF/ZF usefully for >/>=; flip operands for
           </<=.  NaN (unordered: ZF=PF=CF=1) must compare false except
           for != — hence the parity fixups on equality. *)
        (match cop with
        | Mir.CLt ->
          Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
          Asm.setcc asm Asm.cc_a Asm.rax
        | Mir.CLe ->
          Asm.ucomisd asm Asm.xmm1 Asm.xmm0;
          Asm.setcc asm Asm.cc_ae Asm.rax
        | Mir.CGt ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_a Asm.rax
        | Mir.CGe ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_ae Asm.rax
        | Mir.CEq | Mir.CStrict_eq ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_e Asm.rax;
          Asm.setcc asm Asm.cc_np Asm.rcx;
          Asm.and_r8 asm Asm.rax Asm.rcx
        | Mir.CNeq | Mir.CStrict_neq ->
          Asm.ucomisd asm Asm.xmm0 Asm.xmm1;
          Asm.setcc asm Asm.cc_ne Asm.rax;
          Asm.setcc asm Asm.cc_p Asm.rcx;
          Asm.or_r8 asm Asm.rax Asm.rcx);
        box_bool i
      | Lir.Knegate ->
        let host = exit_label pc reason_hostop in
        load_number i.Lir.a Asm.rax host;
        (* IEEE negation flips the sign bit, NaNs included *)
        Asm.movabs asm Asm.rcx Int64.min_int;
        Asm.xor_rr asm Asm.rax Asm.rcx;
        store_dst i Asm.rax
      | Lir.Knot ->
        let host = exit_label pc reason_hostop in
        truthiness i.Lir.a host;
        Asm.xor_al_imm asm 1;
        box_bool i
      | Lir.Ktest ->
        let xl = exit_label pc reason_test in
        truthiness i.Lir.a xl;
        Asm.test_al_al asm;
        Asm.jcc asm Asm.cc_ne pc_labels.(i.Lir.imm);
        Asm.jmp asm pc_labels.(i.Lir.b)
      | Lir.Kgoto -> Asm.jmp asm pc_labels.(i.Lir.imm)
      | Lir.Kreturn -> exit_now pc reason_return
      | Lir.Kbitnot | Lir.Ktypeof | Lir.Ktonumber | Lir.Knew_array
      | Lir.Knew_object | Lir.Kinit_length
      | Lir.Kload_element | Lir.Kstore_element | Lir.Karray_length
      | Lir.Kset_array_length | Lir.Karray_push | Lir.Karray_pop
      | Lir.Kget_prop | Lir.Kset_prop | Lir.Kget_index_gen
      | Lir.Kset_index_gen | Lir.Kload_global | Lir.Kstore_global
      | Lir.Kdeclare_global | Lir.Kcall | Lir.Kcall_method ->
        exit_now pc reason_hostop)
    insts;
  List.iter
    (fun ((pc, reason), l) ->
      Asm.bind asm l;
      exit_now pc reason)
    (List.rev !exit_order);
  let region = Exec_mem.install (Asm.finalize asm) in
  {
    func = f;
    region;
    offsets;
    n_slots;
    const_preload = Array.of_list (List.rev !preload);
    counts = Array.make (Array.length exit_counter_names) 0;
    drained = Array.make (Array.length exit_counter_names) 0;
    exit_slot;
    prof_slot =
      Profile.register_page ~addr:region.Exec_mem.addr
        ~size:region.Exec_mem.code_size
        ("native;" ^ f.Lir.name);
    pool = [];
    active = 0;
    dead = false;
  }

(* ---- activation pool & code-page lifecycle ---- *)

let acquire code =
  code.active <- code.active + 1;
  match code.pool with
  | act :: rest ->
    code.pool <- rest;
    Nanbox.side_reset act.side ~preload:(Array.length code.const_preload);
    act
  | [] ->
    let side = Nanbox.side_create () in
    Array.iter (fun v -> ignore (Nanbox.side_push side v)) code.const_preload;
    { regs = Exec_mem.make_regfile code.n_slots; side }

(* Unmap the page.  Drop the profiler slot FIRST so a tick can never
   land in an address range that is being recycled under a new name. *)
let unmap code =
  Profile.drop_page code.prof_slot;
  Exec_mem.release code.region

let release_activation code act =
  code.pool <- act :: code.pool;
  code.active <- code.active - 1;
  if code.dead && code.active = 0 then unmap code

(* Mark dead; the unmap is deferred until recursive activations drain so
   we never pull an executing page.  Idempotent. *)
let release code =
  code.dead <- true;
  if code.active = 0 then unmap code

(* ---- exit-to-host operations ---- *)

let bailout fmt = Format.kasprintf (fun s -> raise (Lir.Bailout s)) fmt

(* Guard-failure exits: decode the offending register and raise with the
   message the executor would have produced. *)
let host_bailout (realm : Realm.t) act (i : Lir.inst) =
  let get r = Nanbox.decode act.side (Bigarray.Array1.get act.regs r) in
  match i.Lir.kind with
  | Lir.Kunbox_number -> bailout "unbox_number: %s" (Value.type_name (get i.Lir.a))
  | Lir.Kunbox_int32 -> bailout "unbox_int32: %s" (Value.to_display (get i.Lir.a))
  | Lir.Kguard_array -> bailout "guard_array: %s" (Value.type_name (get i.Lir.a))
  | Lir.Kbounds_check ->
    let idx = Executor.raw_number realm (get i.Lir.a) in
    let len = Executor.raw_number realm (get i.Lir.b) in
    bailout "bounds_check: %g >= %g" idx len
  | k -> bailout "native guard: %s" (Lir.kind_name k)

(* Top 16 bits of a NaN-boxed register: below [Nanbox.tag_singleton] for
   every number. *)
let[@inline] tag_of bits = Int64.to_int (Int64.shift_right_logical bits Nanbox.tag_shift)
let[@inline] payload_of bits = Int64.to_int bits land 0xFFFF_FFFF_FFFF

(* The element ops on an array receiver and a number index, read
   straight from the NaN-box bits: no [Value.t] is built for the
   receiver, the index or a length.  Returns [false], having done
   nothing, for any other operand shape — the generic {!host_op} then
   decodes and runs raw_number exactly as the executor does. *)
let element_op heap (regs : Exec_mem.regfile) side (i : Lir.inst) =
  match i.Lir.kind with
  | Lir.Kinit_length | Lir.Karray_length ->
    let recv = Bigarray.Array1.get regs i.Lir.a in
    tag_of recv = Nanbox.tag_array
    && begin
         let len = Heap.length heap (payload_of recv) in
         if i.Lir.dst >= 0 then
           Bigarray.Array1.set regs i.Lir.dst (Int64.bits_of_float (float_of_int len));
         true
       end
  | Lir.Kload_element | Lir.Kstore_element ->
    let recv = Bigarray.Array1.get regs i.Lir.a in
    let idx = Bigarray.Array1.get regs i.Lir.b in
    tag_of recv = Nanbox.tag_array
    && tag_of idx < Nanbox.tag_singleton
    && begin
         let h = payload_of recv in
         let k = int_of_float (Int64.float_of_bits idx) in
         (match i.Lir.kind with
         | Lir.Kload_element ->
           let v = Heap.get_unchecked heap h k in
           if i.Lir.dst >= 0 then
             Bigarray.Array1.set regs i.Lir.dst
               (match v with
               | Value.Number f when not (Float.is_nan f) -> Int64.bits_of_float f
               | v -> Nanbox.encode side v)
         | _ ->
           Heap.set_unchecked heap h k
             (Nanbox.decode side (Bigarray.Array1.get regs i.Lir.c)));
         true
       end
  | _ -> false

(* One host-performed LIR instruction, mirroring the executor case for
   case — including the unchecked element accesses and raw_number
   reinterpretation that model the vulnerable configurations. *)
let host_op code act (realm : Realm.t) (cb : Executor.callbacks) pc =
  let f = code.func in
  let i = f.Lir.code.(pc) in
  let heap = realm.Realm.heap in
  let get r = Nanbox.decode act.side (Bigarray.Array1.get act.regs r) in
  let set d v =
    if d >= 0 then Bigarray.Array1.set act.regs d (Nanbox.encode act.side v)
  in
  let raw v = Executor.raw_number realm v in
  match i.Lir.kind with
  | Lir.Kbounds_check ->
    let idx = raw (get i.Lir.a) in
    let len = raw (get i.Lir.b) in
    if idx < 0.0 || idx >= len then bailout "bounds_check: %g >= %g" idx len
    else set i.Lir.dst (get i.Lir.a)
  | Lir.Kadd -> set i.Lir.dst (Value_ops.binary Ast.Add (get i.Lir.a) (get i.Lir.b))
  | Lir.Kbin nop ->
    let x = raw (get i.Lir.a) in
    let y = raw (get i.Lir.b) in
    set i.Lir.dst
      (Value_ops.binary (Executor.ast_of_num_binop nop) (Value.Number x)
         (Value.Number y))
  | Lir.Kcompare cop ->
    set i.Lir.dst
      (Value_ops.binary (Executor.ast_of_compare cop) (get i.Lir.a) (get i.Lir.b))
  | Lir.Knegate -> set i.Lir.dst (Value.Number (-.raw (get i.Lir.a)))
  | Lir.Kbitnot ->
    set i.Lir.dst (Value_ops.unary Ast.Bit_not (Value.Number (raw (get i.Lir.a))))
  | Lir.Knot -> set i.Lir.dst (Value.Bool (not (Value_ops.to_boolean (get i.Lir.a))))
  | Lir.Ktypeof -> set i.Lir.dst (Value.String (Value.type_name (get i.Lir.a)))
  | Lir.Ktonumber -> set i.Lir.dst (Value.Number (Value_ops.to_number (get i.Lir.a)))
  | Lir.Knew_array -> set i.Lir.dst (Value.Array (Heap.alloc_array heap ~length:i.Lir.imm))
  | Lir.Knew_object -> set i.Lir.dst (Value.Object (Hashtbl.create 8))
  | Lir.Kelements -> (
    match get i.Lir.a with
    | Value.Array h -> set i.Lir.dst (Value.Array h)
    | v -> set i.Lir.dst (Value.Array (int_of_float (raw v))))
  | Lir.Kinit_length -> (
    match get i.Lir.a with
    | Value.Array h -> set i.Lir.dst (Value.Number (float_of_int (Heap.length heap h)))
    | v -> bailout "init_length: %s" (Value.type_name v))
  | Lir.Kload_element -> (
    match get i.Lir.a with
    | Value.Array h ->
      let idx = int_of_float (raw (get i.Lir.b)) in
      set i.Lir.dst (Heap.get_unchecked heap h idx)
    | v -> bailout "load_element: %s" (Value.type_name v))
  | Lir.Kstore_element -> (
    match get i.Lir.a with
    | Value.Array h ->
      let idx = int_of_float (raw (get i.Lir.b)) in
      Heap.set_unchecked heap h idx (get i.Lir.c)
    | v -> bailout "store_element: %s" (Value.type_name v))
  | Lir.Karray_length -> (
    match get i.Lir.a with
    | Value.Array h -> set i.Lir.dst (Value.Number (float_of_int (Heap.length heap h)))
    | v -> bailout "array_length: %s" (Value.type_name v))
  | Lir.Kset_array_length -> (
    match get i.Lir.a with
    | Value.Array h -> Heap.set_length heap h (int_of_float (raw (get i.Lir.b)))
    | v -> bailout "set_array_length: %s" (Value.type_name v))
  | Lir.Karray_push -> (
    match get i.Lir.a with
    | Value.Array h ->
      Heap.push heap h (get i.Lir.b);
      set i.Lir.dst (Value.Number (float_of_int (Heap.length heap h)))
    | v -> bailout "array_push: %s" (Value.type_name v))
  | Lir.Karray_pop -> (
    match get i.Lir.a with
    | Value.Array h -> set i.Lir.dst (Heap.pop heap h)
    | v -> bailout "array_pop: %s" (Value.type_name v))
  | Lir.Kget_prop ->
    set i.Lir.dst (Builtins.get_member realm (get i.Lir.a) f.Lir.names.(i.Lir.imm))
  | Lir.Kset_prop ->
    Builtins.set_member realm (get i.Lir.a) f.Lir.names.(i.Lir.imm) (get i.Lir.b)
  | Lir.Kget_index_gen -> (
    let recv = get i.Lir.a in
    let idx = get i.Lir.b in
    match (recv, Value_ops.to_index idx) with
    | Value.Array h, Some k -> set i.Lir.dst (Heap.get heap h k)
    | Value.Object tbl, _ ->
      set i.Lir.dst
        (match Hashtbl.find_opt tbl (Value_ops.to_string idx) with
        | Some v -> v
        | None -> Value.Undefined)
    | Value.String s, Some k ->
      set i.Lir.dst
        (if k < String.length s then Value.String (String.make 1 s.[k])
         else Value.Undefined)
    | Value.Array _, None -> set i.Lir.dst Value.Undefined
    | v, _ -> Errors.type_error "cannot index %s" (Value.type_name v))
  | Lir.Kset_index_gen -> (
    let recv = get i.Lir.a in
    let idx = get i.Lir.b in
    let v = get i.Lir.c in
    match (recv, Value_ops.to_index idx) with
    | Value.Array h, Some k -> Heap.set heap h k v
    | Value.Object tbl, _ -> Hashtbl.replace tbl (Value_ops.to_string idx) v
    | Value.Array _, None ->
      Errors.type_error "invalid array index %s" (Value.to_display idx)
    | recv, _ -> Errors.type_error "cannot index %s" (Value.type_name recv))
  | Lir.Kload_global -> set i.Lir.dst (cb.Executor.lookup_global f.Lir.names.(i.Lir.imm))
  | Lir.Kstore_global -> cb.Executor.store_global f.Lir.names.(i.Lir.imm) (get i.Lir.a)
  | Lir.Kdeclare_global -> cb.Executor.declare_global f.Lir.names.(i.Lir.imm)
  | Lir.Kcall -> (
    let callee = get i.Lir.a in
    let vargs =
      Array.fold_right (fun r acc -> get r :: acc) f.Lir.call_args.(i.Lir.imm) []
    in
    match callee with
    | Value.Function idx -> set i.Lir.dst (cb.Executor.call_function idx vargs)
    | Value.Builtin name -> set i.Lir.dst (Builtins.call_builtin realm name vargs)
    | v -> Errors.type_error "%s is not a function" (Value.type_name v))
  | Lir.Kcall_method -> (
    let recv = get i.Lir.a in
    let name = f.Lir.names.(i.Lir.imm2) in
    let vargs =
      Array.fold_right (fun r acc -> get r :: acc) f.Lir.call_args.(i.Lir.imm) []
    in
    match Builtins.call_method realm recv name vargs with
    | `Value v -> set i.Lir.dst v
    | `User_function (idx, vargs) -> set i.Lir.dst (cb.Executor.call_function idx vargs))
  | Lir.Kconst | Lir.Kparam | Lir.Kmove | Lir.Kunbox_number | Lir.Kunbox_int32
  | Lir.Kguard_array | Lir.Kgoto | Lir.Ktest | Lir.Kreturn ->
    (* never exit with a hostop reason *)
    assert false

(* A hostop exit: the bit-level element path, else the generic one. *)
let host_exit code act realm cb pc =
  if not (element_op realm.Realm.heap act.regs act.side code.func.Lir.code.(pc)) then
    host_op code act realm cb pc

(* ---- entry ---- *)

let run code (realm : Realm.t) (cb : Executor.callbacks) (args : Value.t list) :
    Value.t =
  let f = code.func in
  let act = acquire code in
  Fun.protect
    ~finally:(fun () -> release_activation code act)
    (fun () ->
      let regs = act.regs in
      Bigarray.Array1.fill regs Nanbox.bits_undefined;
      let n_regs = max f.Lir.n_regs 1 in
      List.iteri
        (fun k v ->
          if k < f.Lir.arity then
            Bigarray.Array1.set regs (n_regs + k) (Nanbox.encode act.side v))
        args;
      let c = code.counts in
      let rec loop off =
        let packed = Exec_mem.call code.region off regs in
        let pc = packed lsr 4 in
        let reason = packed land 0xF in
        c.(reason) <- c.(reason) + 1;
        if reason = reason_return then begin
          let i = f.Lir.code.(pc) in
          if i.Lir.a >= 0 then
            Nanbox.decode act.side (Bigarray.Array1.get regs i.Lir.a)
          else Value.Undefined
        end
        else if reason = reason_hostop then begin
          let k = code.exit_slot.(pc) in
          c.(k) <- c.(k) + 1;
          (* no closure per exit unless the profiler wants the tag *)
          if Profile.running () then
            Profile.with_tag prof_host (fun () -> host_exit code act realm cb pc)
          else host_exit code act realm cb pc;
          loop code.offsets.(pc + 1)
        end
        else if reason = reason_test then begin
          let i = f.Lir.code.(pc) in
          let truthy =
            Value_ops.to_boolean
              (Nanbox.decode act.side (Bigarray.Array1.get regs i.Lir.a))
          in
          loop code.offsets.(if truthy then i.Lir.imm else i.Lir.b)
        end
        else host_bailout realm act f.Lir.code.(pc)
      in
      loop code.offsets.(0))
