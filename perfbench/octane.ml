(* octane-vdc0 / octane-vdc4: the paper's Fig. 5 columns.

   One pass runs every program of [Workloads.everything] from parse to
   finish on an engine carrying bugs #1-#4 under a fresh JITBULL
   configuration (so the policy cache starts cold, as in the paper).
   The two workloads differ only in the DNA database: empty for vdc0
   (the analyzer is omitted, the zero-overhead case), VDCs #1-#4 for
   vdc4, whose passes also run the 20 exploit attempts of those CVEs
   (originals plus the rename/minify/mix/split variants). *)

open Measure
module W = Jitbull_workloads.Workloads
module V = Jitbull_vdc.Demonstrators
module Variants = Jitbull_vdc.Variants
module VC = Jitbull_passes.Vuln_config
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Jitbull = Jitbull_core.Jitbull
module Native = Jitbull_native.Native
module Parser = Jitbull_frontend.Parser
module Compiler = Jitbull_bytecode.Compiler
module Interp = Jitbull_interp.Interp
module Prng = Jitbull_util.Prng

type kind = Vdc0 | Vdc4

(* The paper's #1-#4 public-VDC vulnerabilities, in DB build-up order. *)
let cves = [ VC.CVE_2019_17026; VC.CVE_2019_9810; VC.CVE_2019_9791; VC.CVE_2019_11707 ]
let vulns = VC.make cves

type job =
  | Program of { name : string; source : string; reference : string }
  | Exploit of { name : string; source : string; expected : V.observable }

let job_name = function Program p -> p.name | Exploit e -> e.name

(* The DNA database of VDCs #1-#4, each harvested on an engine carrying
   just that bug, as its reporter would. *)
let harvest_db cves =
  let db = Db.create () in
  List.iter
    (fun cve ->
      let d = V.find cve in
      ignore (Db.harvest db ~cve:d.V.name ~vulns:(VC.make [ cve ]) d.V.source))
    cves;
  db

let exploit_attempts () =
  List.concat_map
    (fun cve ->
      let d = V.find cve in
      Exploit { name = d.V.name ^ "/original"; source = d.V.source; expected = d.V.expected }
      :: List.map
           (fun k ->
             Exploit
               {
                 name = d.V.name ^ "/" ^ Variants.kind_name k;
                 source = Variants.apply k d.V.source;
                 expected = d.V.expected;
               })
           Variants.all_kinds)
    cves

(* Oracle references: each program's output under the tree-walking
   interpreter, which shares no code with the engine's tiers. *)
let references () =
  List.map (fun (w : W.t) -> (w, (Interp.run_source w.W.source).Interp.output)) W.everything

type t = {
  db : Db.t;
  jobs : job array;
  rng : Prng.t;
}

(* The system-side set-up a pass depends on: the DNA database and the
   front-end load of every source the workload runs. *)
let prepare kind refs =
  let db = match kind with Vdc0 -> Db.create () | Vdc4 -> harvest_db cves in
  let programs =
    List.map
      (fun ((w : W.t), reference) ->
        Program { name = w.W.name; source = w.W.source; reference })
      refs
  in
  let jobs = programs @ (match kind with Vdc0 -> [] | Vdc4 -> exploit_attempts ()) in
  List.iter
    (fun j ->
      let source = match j with Program p -> p.source | Exploit e -> e.source in
      ignore (Compiler.compile (Parser.parse source)))
    jobs;
  (db, Array.of_list jobs)

let create ?(refs = references ()) ~seed ~setup_reps kind =
  let (db, jobs), setup_s = repeat_setup ~reps:setup_reps (fun () -> prepare kind refs) in
  ({ db; jobs; rng = Prng.create seed }, setup_s)

let decision_counter = function
  | Engine.Allow -> "core.allow"
  | Engine.Disable_passes _ -> "core.disable"
  | Engine.Forbid_jit -> "core.forbid"

(* The [Jitbull.analyzer] closure with a span and verdict counters. *)
let traced_analyzer layers (a : Engine.analyzer) : Engine.analyzer =
 fun ~ctx ~func_index ~name ~trace ->
  let d = Layers.span layers "core.decide" (fun () -> a ~ctx ~func_index ~name ~trace) in
  Layers.count layers "core.decisions";
  Layers.count layers (decision_counter d);
  d

let config t layers =
  let cfg = Jitbull.config ~vulns t.db in
  if Layers.on layers then
    { cfg with Engine.analyzer = Option.map (traced_analyzer layers) cfg.Engine.analyzer }
  else cfg

(* Engine counters and native exit totals of one finished program. *)
let account layers e =
  let s = Engine.stats e in
  let add name v = Layers.add layers name (float_of_int v) in
  Layers.add layers "jit.stall" s.Engine.main_stall_seconds;
  add "jit.ion_compiles" s.Engine.ion_compiles;
  add "jit.baseline_compiles" s.Engine.baseline_compiles;
  add "jit.nr_disjit" s.Engine.nr_disjit;
  add "jit.nr_nojit" s.Engine.nr_nojit;
  add "jit.bailouts" s.Engine.bailouts;
  add "jit.native_installs" s.Engine.native_installs;
  let funcs = Array.length (Engine.vm e).Jitbull_bytecode.Vm.program.Jitbull_bytecode.Op.funcs in
  for i = 0 to funcs - 1 do
    match Engine.native_code_of e i with
    | Some code ->
      let x = Native.exits code in
      add "native.exits_hostop" x.Native.t_hostop;
      add "native.exits_return" x.Native.t_return
    | None -> ()
  done

(* Run one job; [true] when its oracle holds. *)
let run_job layers cfg = function
  | Program p -> (
    try
      let ast = Layers.span layers "frontend.parse" (fun () -> Parser.parse p.source) in
      let bc = Layers.span layers "bytecode.compile" (fun () -> Compiler.compile ast) in
      let e = Engine.create cfg bc in
      let out = Layers.span layers "jit.run" (fun () -> Engine.run e) in
      if Layers.on layers then account layers e;
      String.equal out p.reference
    with _ -> false)
  | Exploit x -> (
    match V.run_exploit cfg x.source x.expected with
    | V.Neutralized -> true
    | V.Exploited _ -> false
    | exception _ -> false)

type pass = {
  pass_s : float;  (** wall seconds of the jobs, calibration slices left out *)
  ref_s : float;  (** the same in reference seconds ([Measure.run_ops]) *)
  programs_s : float;  (** reference seconds of the programs alone: Fig. 5's column *)
  op_s : (string * float) list;  (** (job, wall seconds) *)
  op_ref_s : float list;  (** reference seconds per job *)
  failures : string list;
}

(* One pass over every job in a seeded order; with [host], calibration
   slices bracket every job. *)
let run_pass ?(host = false) t layers =
  Prng.shuffle t.rng t.jobs;
  let cfg = config t layers in
  let ok = Array.make (Array.length t.jobs) true in
  let times =
    Array.to_list
      (run_ops ~host (Array.length t.jobs) (fun i -> ok.(i) <- run_job layers cfg t.jobs.(i)))
  in
  let jobs = Array.to_list t.jobs in
  let sum l = List.fold_left ( +. ) 0.0 l in
  {
    pass_s = sum (List.map fst times);
    ref_s = sum (List.map snd times);
    programs_s =
      sum
        (List.map2
           (fun j (_, r) -> match j with Program _ -> r | Exploit _ -> 0.0)
           jobs times);
    op_s = List.map2 (fun j (w, _) -> (job_name j, w)) jobs times;
    op_ref_s = List.map snd times;
    failures = List.filteri (fun i _ -> not ok.(i)) jobs |> List.map job_name;
  }
