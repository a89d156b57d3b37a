(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --fig5 --seed N --seconds S

   A run sets the workload up ([setup_s]: the median of several
   set-ups), runs one untimed warm-up pass, then measures whole passes
   for [--seconds] (at least [min_passes]). Times are reference times:
   each operation's wall time over the host slowdown measured around it
   ([Measure.Host], [Measure.run_ops]). Every operation is checked
   against its oracle. With [--trace 0] the last line of standard output
   is the end-to-end result; with [--trace 1] untraced and traced
   passes alternate, the per-layer table and the tracing overhead
   are printed, and the last line carries the per-layer metrics.

   [--fig5] alternates octane-vdc0 and octane-vdc4 passes in one process
   and prints the paper's Fig. 5 overhead of the #4-VDC database over the
   empty one, with a bootstrap confidence interval. *)

open Perfbench
open Perfbench.Measure

let setup_reps = 21
let min_passes = 3

type sample = {
  pass_s : float;  (** reference seconds *)
  op_s : float list;  (** reference seconds per completed operation *)
  wall_s : float;  (** the pass's wall seconds *)
  attempted : int;
  errors : int;  (** failed operations that are not oracle violations *)
  wrong : string list;  (** oracle violations *)
}

type workload = {
  setup_s : float;
  tail : float;  (** the percentile reported as [op_tail_ms] *)
  run : Layers.t -> sample;
  layer_values : passes:int -> (string * float) list;
      (** per-layer values the spans do not give, over the traced passes *)
  finish : unit -> unit;
}

let octane ~seed kind =
  let t, setup_s = Octane.create ~seed ~setup_reps kind in
  let run layers =
    Gc.compact ();
    let p = Octane.run_pass ~host:true t layers in
    {
      pass_s = p.Octane.ref_s;
      wall_s = p.Octane.pass_s;
      op_s = p.Octane.op_ref_s;
      attempted = List.length p.Octane.op_s;
      errors = 0;
      wrong = p.Octane.failures;
    }
  in
  (* the tail is the pass's slowest job: its p90 fell between two
     programs whose times are within 10% of each other, and flipped *)
  { setup_s; tail = 1.0; run; layer_values = (fun ~passes:_ -> []); finish = ignore }

let replay ~seed =
  let t, setup_s = Replay.create ~seed ~setup_reps in
  let run layers =
    let times, wrong = Replay.run_pass ~host:true t layers in
    let sum l = List.fold_left ( +. ) 0.0 l in
    let op_s = List.map snd times in
    {
      pass_s = sum op_s;
      op_s;
      wall_s = sum (List.map fst times);
      attempted = List.length op_s;
      errors = 0;
      wrong;
    }
  in
  let layer_values ~passes =
    List.map
      (fun (name, s) -> ("passes." ^ name ^ "_ms", s *. 1000.0 /. float_of_int (max 1 passes)))
      (Replay.pass_seconds t)
  in
  { setup_s; tail = 0.99; run; layer_values; finish = ignore }

let verdicts ~seed =
  let t, setup_s = Verdicts.create ~seed ~setup_reps in
  let twin = lazy (Verdicts.twin ()) in
  let rtt = ref [] and decide = ref [] and writes = ref [] in
  let run layers =
    let p = ref None in
    let wall_s, ref_s = (run_ops ~host:true 1 (fun _ -> p := Some (Verdicts.run_pass t))).(0) in
    let p = Option.get !p in
    let slowdown = wall_s /. ref_s in
    if Layers.on layers then begin
      rtt := p.Verdicts.verdict_s @ !rtt;
      writes := p.Verdicts.write_s @ !writes;
      decide :=
        Verdicts.decide_pass t (Lazy.force twin) ~pass_no:(t.Verdicts.pass_no - 1) @ !decide
    end;
    {
      pass_s = p.Verdicts.pass_s /. slowdown;
      op_s = List.map (fun s -> s /. slowdown) p.Verdicts.verdict_s;
      wall_s = p.Verdicts.pass_s;
      attempted = p.Verdicts.attempted;
      errors = p.Verdicts.errors;
      wrong = List.init p.Verdicts.wrong (fun _ -> "verdict");
    }
  in
  let layer_values ~passes:_ =
    let ms l = median l *. 1000.0 in
    [
      ("service.rtt_ms", ms !rtt);
      ("service.decide_ms", ms !decide);
      ("service.wire_ms", ms !rtt -. ms !decide);
      ("service.cache_hit_ratio", Verdicts.cache_hit_ratio t);
      ("service.install_ms", ms !writes);
    ]
  in
  { setup_s; tail = 0.99; run; layer_values; finish = (fun () -> Verdicts.stop t) }

(* The per-layer table: every layer of the repository, zero where the
   workload does no work in it. Times are per pass. *)
let per_layer layers ~passes ~extra ~overhead_pct ~slowdown ~wall_ms =
  let n = float_of_int (max 1 passes) in
  let g name = Layers.get layers name /. n in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let ms name = (name ^ "_ms", "ms", g name *. 1000.0) in
  let cnt name = (name, "count", g name) in
  let value unit_ name = (name, unit_, try List.assoc name extra with Not_found -> 0.0) in
  [ ms "frontend.parse"; ms "bytecode.compile"; ms "jit.run"; ms "jit.stall";
    ("jit.exec_ms", "ms", (g "jit.run" -. g "jit.stall") *. 1000.0);
    cnt "jit.ion_compiles"; cnt "jit.baseline_compiles"; cnt "jit.nr_disjit";
    cnt "jit.nr_nojit"; cnt "jit.bailouts"; cnt "jit.native_installs";
    ms "core.decide"; cnt "core.decisions"; cnt "core.allow"; cnt "core.disable";
    cnt "core.forbid"; ms "core.dna_extract"; ms "core.db_compare";
    ( "core.unchanged_snapshot_ratio", "ratio",
      ratio (g "core.unchanged_snapshots") (g "core.snapshots") );
    ms "mir.build"; cnt "mir.instrs"; ms "passes.traced"; ms "passes.quiet" ]
  @ List.map (fun p -> value "ms" ("passes." ^ p ^ "_ms")) Jitbull_passes.Pipeline.pass_names
  @ [ ms "lir.lower"; ms "lir.regalloc"; ms "lir.peephole"; ms "native.emit";
      ("native.code_bytes", "bytes", g "native.code_bytes");
      cnt "native.exits_hostop"; cnt "native.exits_return";
      ( "native.hostop_per_call", "ratio",
        ratio (g "native.exits_hostop") (g "native.exits_return") );
      value "ms" "service.rtt_ms"; value "ms" "service.decide_ms";
      value "ms" "service.wire_ms"; value "ratio" "service.cache_hit_ratio";
      value "ms" "service.install_ms";
      ("trace.overhead_pct", "%", overhead_pct);
      ("host.slowdown", "ratio", slowdown);
      ("host.pass_wall_ms", "ms", wall_ms) ]
  |> List.map (fun (name, unit_, value) -> metric name unit_ value)

let measure ~seconds ~trace w =
  let off = Layers.create ~on:false and layers = Layers.create ~on:true in
  let attempted = ref 0 and errors = ref 0 and wrong = ref [] in
  let count s =
    attempted := !attempted + s.attempted;
    errors := !errors + s.errors;
    wrong := s.wrong @ !wrong;
    s
  in
  ignore (count (w.run off));
  let untimed = ref [] and traced = ref [] in
  let deadline = now () +. seconds in
  let i = ref 0 in
  while
    now () < deadline
    || List.length !untimed < min_passes
    || (trace && List.length !traced < min_passes)
  do
    (if trace && !i mod 2 = 1 then traced := count (w.run layers) :: !traced
     else untimed := count (w.run off) :: !untimed);
    incr i
  done;
  List.iter (fun n -> Printf.eprintf "oracle: %s failed\n" n) (List.sort_uniq compare !wrong);
  let failed = !errors + List.length !wrong in
  let passes l = List.map (fun s -> s.pass_s) l in
  let metrics =
    if not trace then begin
      let ops = List.fold_left (fun n s -> n + List.length s.op_s) 0 !untimed in
      let busy = List.fold_left ( +. ) 0.0 (passes !untimed) in
      (* a latency percentile is taken within each pass, then the median
         over passes: a slow stretch of the shared host moves a few
         passes, not the figure *)
      let latency p = median (List.map (fun s -> percentile s.op_s p) !untimed) *. 1000.0 in
      [
        metric "setup_s" "s" w.setup_s;
        metric "pass_ms" "ms" (median (passes !untimed) *. 1000.0);
        metric "ops_per_s" "1/s" (float_of_int ops /. busy);
        metric "op_p50_ms" "ms" (latency 0.5);
        metric "op_tail_ms" "ms" (latency w.tail);
        metric "peak_heap_mb" "MiB" (peak_heap_mb ());
      ]
    end
    else begin
      let base = median (passes !untimed) and with_spans = median (passes !traced) in
      let overhead_pct = 100.0 *. (with_spans -. base) /. base in
      let n = List.length !traced in
      let slowdown = median (List.map (fun s -> s.wall_s /. s.pass_s) (!untimed @ !traced)) in
      let wall_ms = median (List.map (fun s -> s.wall_s) !untimed) *. 1000.0 in
      let table =
        per_layer layers ~passes:n ~extra:(w.layer_values ~passes:n) ~overhead_pct ~slowdown
          ~wall_ms
      in
      Printf.printf
        "per-layer table (%d traced passes; wall times per pass, host.* aside)\n" n;
      List.iter
        (fun m -> Printf.printf "  %-36s %14.4f %s\n" m.name m.value m.unit_)
        table;
      Printf.printf
        "tracing overhead: pass %.2f ms untraced vs %.2f ms traced, reference times (%+.2f%%)\n"
        (base *. 1000.0) (with_spans *. 1000.0) overhead_pct;
      table
    end
  in
  w.finish ();
  { attempted = !attempted; failed; wrong = List.length !wrong; metrics }

(* ---- Fig. 5: #4-VDC vs empty-DB overhead ---- *)

let bootstrap_ci rng a b =
  let a = Array.of_list a and b = Array.of_list b in
  let resample x =
    let n = Array.length x in
    List.init n (fun _ -> x.(Jitbull_util.Prng.int rng n))
  in
  let stats =
    List.init 1000 (fun _ -> (median (resample b) /. median (resample a)) -. 1.0)
  in
  (percentile stats 0.025, percentile stats 0.975)

let fig5 ~seed ~seconds =
  let refs = Octane.references () in
  let t0, _ = Octane.create ~refs ~seed ~setup_reps:1 Octane.Vdc0 in
  let t4, _ = Octane.create ~refs ~seed ~setup_reps:1 Octane.Vdc4 in
  let rng = Jitbull_util.Prng.create seed in
  let off = Layers.create ~on:false in
  let pass t =
    Gc.compact ();
    let p = Octane.run_pass ~host:true t off in
    if p.Octane.failures <> [] then failwith "fig5: an oracle failed";
    p.Octane.programs_s
  in
  ignore (pass t0, pass t4);
  let s0 = ref [] and s4 = ref [] in
  let deadline = now () +. seconds in
  while now () < deadline || List.length !s0 < min_passes do
    if Jitbull_util.Prng.bool rng then begin
      s0 := pass t0 :: !s0;
      s4 := pass t4 :: !s4
    end
    else begin
      s4 := pass t4 :: !s4;
      s0 := pass t0 :: !s0
    end
  done;
  let lo, hi = bootstrap_ci rng !s0 !s4 in
  let point = (median !s4 /. median !s0) -. 1.0 in
  Printf.printf
    "Fig. 5 overhead, #4-VDC DB over empty DB (programs only, %d interleaved pass pairs):\n\
    \  vdc0 median %.1f ms, vdc4 median %.1f ms (reference times),\n\
    \  overhead %+.1f%% (95%% CI %+.1f%% .. %+.1f%%)%s\n"
    (List.length !s0) (median !s0 *. 1000.0) (median !s4 *. 1000.0) (100.0 *. point)
    (100.0 *. lo) (100.0 *. hi)
    (if lo <= 0.0 && hi >= 0.0 then " - not significant" else "")

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let fig = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--fig5", Arg.Set fig, " print the Fig. 5 overhead instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !fig then fig5 ~seed:!seed ~seconds:!seconds
  else begin
    let trace = !trace = 1 and seconds = !seconds and seed = !seed in
    let r =
      match !workload with
      | "octane-vdc0" -> measure ~seconds ~trace (octane ~seed Octane.Vdc0)
      | "octane-vdc4" -> measure ~seconds ~trace (octane ~seed Octane.Vdc4)
      | "tierup-replay" -> measure ~seconds ~trace (replay ~seed)
      | "verdict-service" -> measure ~seconds ~trace (verdicts ~seed)
      | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
    in
    Printf.printf "operations: %d attempted, %d failed (%d oracle violations)\n" r.attempted
      r.failed r.wrong;
    print_endline (result_json r)
  end
