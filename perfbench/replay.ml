(* tierup-replay: the go/no-go compile path without execution.

   Set-up runs the octane-vdc4 programs once with a recording analyzer
   and keeps every Ion tier-up: the function, a copy of its type-feedback
   row and of its statically bound callees' rows, and the engine's own
   verdict. A pass replays every recorded tier-up through the public
   layer functions, in the engine's order: build, traced pipeline, DNA
   extraction, DB comparison, verdict, recompile with the flagged passes
   off (when the verdict asks for it), lowering, register allocation,
   peephole, native emission and release. *)

open Measure
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Jitbull = Jitbull_core.Jitbull
module Op = Jitbull_bytecode.Op
module Vm = Jitbull_bytecode.Vm
module Feedback = Jitbull_bytecode.Feedback
module Builder = Jitbull_mir.Builder
module Snapshot = Jitbull_mir.Snapshot
module Pipeline = Jitbull_passes.Pipeline
module Lower = Jitbull_lir.Lower
module Regalloc = Jitbull_lir.Regalloc
module Peephole = Jitbull_lir.Peephole
module Native = Jitbull_native.Native
module Value = Jitbull_runtime.Value
module Obs = Jitbull_obs.Obs
module Metrics = Jitbull_obs.Metrics
module Prng = Jitbull_util.Prng
module W = Jitbull_workloads.Workloads

type tierup = {
  func : Op.func;
  row : Feedback.site array;
  callees : (string * Op.func * Feedback.site array) list;
  verdict : Engine.decision;  (** what the engine decided for this compile *)
}

(* Names the engine's inline resolver may bind: globals holding another
   function that no code of the program ever stores to. *)
let bound_callees (program : Op.program) (vm : Vm.t) ~caller_idx (func : Op.func) =
  let stored = Hashtbl.create 16 in
  let scan (f : Op.func) =
    Array.iter (function Op.Store_global n -> Hashtbl.replace stored n () | _ -> ()) f.Op.code
  in
  Array.iter scan program.Op.funcs;
  scan program.Op.main;
  Array.fold_left
    (fun acc op ->
      match op with
      | Op.Load_global name
        when (not (Hashtbl.mem stored name)) && not (List.exists (fun (n, _, _) -> n = name) acc)
        -> (
        match Hashtbl.find_opt vm.Vm.globals name with
        | Some (Value.Function cidx) when cidx <> caller_idx ->
          (name, program.Op.funcs.(cidx), Feedback.copy_row vm.Vm.feedback.(cidx)) :: acc
        | _ -> acc)
      | _ -> acc)
    [] func.Op.code

(* Run [source] on [cfg] with the analyzer wrapped to capture each
   analyzed tier-up's inputs together with the verdict it produced. *)
let record_source cfg source =
  let recorded = ref [] in
  let engine = ref None in
  let capture (a : Engine.analyzer) : Engine.analyzer =
   fun ~ctx ~func_index ~name ~trace ->
    let d = a ~ctx ~func_index ~name ~trace in
    let e = Option.get !engine in
    let vm = Engine.vm e in
    let func = vm.Vm.program.Op.funcs.(func_index) in
    recorded :=
      {
        func;
        row = Feedback.copy_row vm.Vm.feedback.(func_index);
        callees = bound_callees vm.Vm.program vm ~caller_idx:func_index func;
        verdict = d;
      }
      :: !recorded;
    d
  in
  let cfg = { cfg with Engine.analyzer = Option.map capture cfg.Engine.analyzer } in
  let e =
    Engine.create cfg
      (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse source))
  in
  engine := Some e;
  ignore (Engine.run e);
  List.rev !recorded

let record db =
  (* policy cache off: every Ion compile reaches the analyzer *)
  let cfg = Jitbull.config ~policy_cache:false ~vulns:Octane.vulns db in
  List.concat_map (fun (w : W.t) -> record_source cfg w.W.source) W.everything

type t = {
  db : Db.t;
  tierups : tierup array;
  rng : Prng.t;
  obs : Obs.t;  (** receives the pipeline's per-pass histograms on traced passes *)
}

let create ~seed ~setup_reps =
  let db, setup_s =
    repeat_setup ~reps:setup_reps (fun () ->
        let db = Octane.harvest_db Octane.cves in
        List.iter
          (fun (w : W.t) ->
            ignore (Jitbull_bytecode.Compiler.compile (Jitbull_frontend.Parser.parse w.W.source)))
          W.everything;
        db)
  in
  let tierups = Array.of_list (record db) in
  ({ db; tierups; rng = Prng.create seed; obs = Obs.create () }, setup_s)

let decision_of_verdict = function
  | `Allow -> Engine.Allow
  | `Disable ps -> Engine.Disable_passes ps
  | `Forbid -> Engine.Forbid_jit

let unchanged_snapshots trace =
  let rec go acc = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      go (if a.Snapshot.entries = b.Snapshot.entries then acc + 1 else acc) rest
    | _ -> acc
  in
  go 0 trace

(* Replay one tier-up; [true] when the replayed verdict equals the
   engine's. *)
let replay_one t layers tu =
  let span name f = Layers.span layers name f in
  let obs = if Layers.on layers then Some t.obs else None in
  let resolver name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) tu.callees with
    | Some (_, f, row) -> Some (Builder.build f ~feedback_row:row)
    | None -> None
  in
  let build () = span "mir.build" (fun () -> Builder.build tu.func ~feedback_row:tu.row) in
  let g = build () in
  let trace =
    span "passes.traced" (fun () ->
        Pipeline.run Octane.vulns ?obs ~inline_resolver:resolver g)
  in
  let decision =
    span "core.decide" (fun () ->
        let dna = span "core.dna_extract" (fun () -> Dna.extract trace) in
        let matched = span "core.db_compare" (fun () -> Db.matching t.db dna) in
        decision_of_verdict (snd (Jitbull.verdict_of_matches matched)))
  in
  if Layers.on layers then begin
    Layers.add layers "mir.instrs"
      (match trace with (_, s) :: _ -> float_of_int (Snapshot.entry_count s) | [] -> 0.0);
    Layers.add layers "core.unchanged_snapshots" (float_of_int (unchanged_snapshots trace));
    Layers.add layers "core.snapshots" (float_of_int (max 0 (List.length trace - 1)));
    Layers.count layers (Octane.decision_counter decision);
    Layers.count layers "core.decisions"
  end;
  let emit g =
    let lir = span "lir.lower" (fun () -> Lower.lower g) in
    span "lir.regalloc" (fun () -> Regalloc.allocate lir);
    ignore (span "lir.peephole" (fun () -> Peephole.run lir));
    if Native.enabled () then begin
      let code = span "native.emit" (fun () -> Native.compile lir) in
      Layers.add layers "native.code_bytes" (float_of_int (Native.code_size code));
      Native.release code
    end
  in
  (match decision with
  | Engine.Allow -> emit g
  | Engine.Disable_passes ps when List.for_all Pipeline.can_disable ps ->
    let g = build () in
    span "passes.quiet" (fun () ->
        Pipeline.run_quiet Octane.vulns ?obs ~inline_resolver:resolver ~disabled:ps g);
    emit g
  | Engine.Disable_passes _ | Engine.Forbid_jit -> ());
  decision = tu.verdict

(* One pass over every tier-up in a seeded order: the (wall, reference)
   seconds of each and the names of those whose verdict was wrong. With
   [host], a calibration slice runs after every [slice_every] tier-ups
   ([Measure.run_ops]). *)
let slice_every = 8

let run_pass ?(host = false) t layers =
  Prng.shuffle t.rng t.tierups;
  let wrong = ref [] in
  let times =
    run_ops ~host ~every:slice_every (Array.length t.tierups) (fun i ->
        let tu = t.tierups.(i) in
        if not (replay_one t layers tu) then wrong := tu.func.Op.name :: !wrong)
  in
  (Array.to_list times, !wrong)

(* Seconds spent in each pipeline pass over the traced replay passes, from
   the [pass.<name>.seconds] histograms [Pipeline.run ~obs] records. *)
let pass_seconds t =
  let view = Metrics.snapshot (Obs.metrics t.obs) in
  List.map
    (fun name ->
      ( name,
        match Metrics.find_histogram view ("pass." ^ name ^ ".seconds") with
        | Some h -> h.Metrics.hv_sum
        | None -> 0.0 ))
    Pipeline.pass_names
