(* verdict-service: jitbulld's wire, queue and lookup layers, with DB
   writes beside reads.

   Set-up records a verdict stream: one request per Ion compile of the
   octane programs and of the #1-#4 demonstrators, with the verdict the
   in-process analyzer reached. A pass replays a seeded mix over two
   keep-alive connections (a closed loop: each sends its next request
   when the previous answer arrived) against an in-process [Service]
   with one worker domain: mostly verbatim requests (server cache hits),
   a share with a perturbed feedback hash (full parse and sharded query),
   and a periodic POST /install then /remove of one extra VDC entry,
   whose generation bumps drop every cache level. *)

open Measure
module Engine = Jitbull_jit.Engine
module Db = Jitbull_core.Db
module Dna = Jitbull_core.Dna
module Jitbull = Jitbull_core.Jitbull
module Proto = Jitbull_service.Proto
module Service = Jitbull_service.Service
module Http = Jitbull_obs.Http_export
module Obs = Jitbull_obs.Obs
module Sexpr = Jitbull_util.Sexpr
module Prng = Jitbull_util.Prng
module V = Jitbull_vdc.Demonstrators
module VC = Jitbull_passes.Vuln_config
module W = Jitbull_workloads.Workloads

(* One pass of the mix: [ops_per_pass] operations, a DB write every
   [write_every] of them (install and remove alternate, so every pass
   starts and ends on the base DB), and a [perturbed_pct] share of
   requests that miss every server cache. *)
let ops_per_pass = 2000
let write_every = 500
let perturbed_pct = 15
let connections = 2

type op = Verdict of { idx : int; perturbed : bool } | Install | Remove

(* The seeded mix. *)
let mix ~seed ~stream_len =
  let rng = Prng.create seed in
  Array.init ops_per_pass (fun i ->
      if i mod write_every = write_every / 2 then
        if i / write_every mod 2 = 0 then Install else Remove
      else Verdict { idx = Prng.int rng stream_len; perturbed = Prng.int rng 100 < perturbed_pct })

type t = {
  svc : Service.t;
  stream : Proto.verdict_req array;
  bodies : string array;  (** verbatim request bodies, encoded once *)
  expected : Proto.verdict array;  (** verdict on the base DB *)
  expected_extra : Proto.verdict array;  (** ... with the extra entry installed *)
  extra : Db.entry;
  extra_body : string;
  ops : op array;
  conns : Http.Conn.t array;
  mutable pass_no : int;
}

(* The recorded stream: every analyzed Ion compile, with its DNA. *)
let record_stream db =
  let reqs = ref [] in
  let analyzer ~ctx ~func_index:_ ~name ~trace =
    let dna = Dna.extract trace in
    let _, verdict = Jitbull.verdict_of_matches (Db.matching db dna) in
    reqs := (name, ctx, dna) :: !reqs;
    Proto.decision_of_verdict verdict
  in
  let cfg = { Engine.default_config with Engine.vulns = Octane.vulns; analyzer = Some analyzer } in
  List.iter (fun (w : W.t) -> ignore (Engine.run_source cfg w.W.source)) W.everything;
  List.iter
    (fun cve -> try ignore (Engine.run_source cfg (V.find cve).V.source) with _ -> ())
    Octane.cves;
  Array.of_list (List.rev !reqs)

let verdict_on db dna = snd (Jitbull.verdict_of_matches (Db.matching db dna))

(* The extra entry installed and removed during the replay: the first
   entry of a VDC outside the base DB. *)
let extra_entry () =
  let db = Octane.harvest_db [ VC.CVE_2019_9792 ] in
  List.hd (Db.entries db)

let connect svc = Http.Conn.connect ~timeout_s:30.0 ~port:(Service.port svc) ()

let start_service () =
  let db = Octane.harvest_db Octane.cves in
  let svc = Service.create ~workers:1 ~obs:(Obs.create ()) ~db ~port:0 () in
  let conns = Array.init connections (fun _ -> connect svc) in
  (svc, conns)

let stop_service (svc, conns) =
  Array.iter Http.Conn.close conns;
  Service.stop svc

let create ~seed ~setup_reps =
  let recorded = record_stream (Octane.harvest_db Octane.cves) in
  let extra = extra_entry () in
  let base = Octane.harvest_db Octane.cves in
  let with_extra = Octane.harvest_db Octane.cves in
  Db.add with_extra extra;
  let stream =
    Array.mapi
      (fun i (name, (ctx : Engine.compile_ctx), dna) ->
        {
          Proto.vr_id = i;
          vr_func = name;
          vr_bytecode_hash = ctx.Engine.cc_bytecode_hash;
          vr_feedback_hash = ctx.Engine.cc_feedback_hash;
          vr_dna = Sexpr.to_string (Dna.to_sexpr dna);
        })
      recorded
  in
  let expected = Array.map (fun (_, _, dna) -> verdict_on base dna) recorded in
  let expected_extra = Array.map (fun (_, _, dna) -> verdict_on with_extra dna) recorded in
  (* the long-lived service's heap tuning, as jitbulld sets it *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let (svc, conns), setup_s =
    repeat_setup ~discard:stop_service ~reps:setup_reps start_service
  in
  ( {
      svc;
      stream;
      bodies = Array.map (fun r -> Proto.encode_reqs [ r ]) stream;
      expected;
      expected_extra;
      extra;
      extra_body = Sexpr.to_string (Db.entry_to_sexpr extra);
      ops = mix ~seed ~stream_len:(Array.length stream);
      conns;
      pass_no = 0;
    },
    setup_s )

let stop t = stop_service (t.svc, t.conns)

let same_verdict (a : Proto.verdict) (b : Proto.verdict) =
  match (a, b) with
  | `Allow, `Allow | `Forbid, `Forbid -> true
  | `Disable p, `Disable q -> p = q
  | _ -> false

(* A request no server cache has seen: its feedback hash salted with the
   pass number and the operation's position in the mix. *)
let perturb ~pass_no r i =
  let salt = ((pass_no * ops_per_pass) + i + 1) * 0x9E3779B1 in
  { r with Proto.vr_feedback_hash = r.Proto.vr_feedback_hash lxor salt }

type pass = {
  pass_s : float;
  verdict_s : float list;  (** round-trip of each answered verdict *)
  write_s : float list;  (** round-trip of each install / remove *)
  attempted : int;
  errors : int;  (** non-200 answers and dead connections *)
  wrong : int;  (** answered verdicts that differ from the reference *)
}

(* The oracle: [rbody] answers request [idx] alone, with the verdict the
   in-process analyzer reached on the DB of the generation it reports
   ([log]: generation -> extra entry installed). *)
let judge ~expected ~expected_extra ~log idx rbody =
  match Proto.decode_resps rbody with
  | [ r ] when r.Proto.vs_id = idx -> (
    match Hashtbl.find_opt log r.Proto.vs_generation with
    | Some installed ->
      same_verdict r.Proto.vs_verdict (if installed then expected_extra.(idx) else expected.(idx))
    | None -> false)
  | _ | (exception _) -> false

(* Whether the extra entry is in the service's DB, by generation: the
   writer logs the DB it left behind, and answers are judged after the
   pass against the DB at the generation they report. *)
let log_db t log =
  let db = Service.db t.svc in
  Hashtbl.replace log (Db.generation db) (List.mem t.extra.Db.cve (Db.cves db))

(* One pass: both engine connections pull the next operation off a
   shared cursor. Writes come from a separate maintainer client (one
   connection each) and run in mix order: a write waits for the previous
   one. A failed request is counted and its connection replaced; it is
   never retried. *)
let run_pass t =
  let cursor = Atomic.make 0 and writes_done = Atomic.make 0 in
  let errors = Atomic.make 0 and attempted = Atomic.make 0 in
  let verdict_s = Array.make connections [] and write_s = Array.make connections [] in
  let answers = Array.make connections [] in
  let log = Hashtbl.create 8 in
  log_db t log;
  let verdict c idx body =
    let t0 = now () in
    match Http.Conn.request t.conns.(c) ~meth:"POST" ~body "/verdict" with
    | 200, _, rbody ->
      verdict_s.(c) <- (now () -. t0) :: verdict_s.(c);
      answers.(c) <- (idx, rbody) :: answers.(c)
    | _ | (exception _) ->
      Atomic.incr errors;
      Http.Conn.close t.conns.(c);
      t.conns.(c) <- connect t.svc
  in
  let write c ordinal w =
    while Atomic.get writes_done < ordinal do
      Thread.yield ()
    done;
    let body, path =
      match w with
      | `Install -> (t.extra_body, "/install")
      | `Remove -> ("", "/remove?cve=" ^ t.extra.Db.cve)
    in
    let t0 = now () in
    (match
       let conn = connect t.svc in
       Fun.protect ~finally:(fun () -> Http.Conn.close conn) (fun () ->
           Http.Conn.request conn ~meth:"POST" ~body path)
     with
    | 200, _, _ -> write_s.(c) <- (now () -. t0) :: write_s.(c)
    | _ | (exception _) -> Atomic.incr errors);
    log_db t log;
    Atomic.incr writes_done
  in
  let worker c =
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < ops_per_pass then begin
        Atomic.incr attempted;
        (match t.ops.(i) with
        | Verdict { idx; perturbed = false } -> verdict c idx t.bodies.(idx)
        | Verdict { idx; perturbed = true } ->
          verdict c idx (Proto.encode_reqs [ perturb ~pass_no:t.pass_no t.stream.(idx) i ])
        | Install -> write c (i / write_every) `Install
        | Remove -> write c (i / write_every) `Remove);
        loop ()
      end
    in
    loop ()
  in
  let t0 = now () in
  let threads = List.init connections (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let pass_s = now () -. t0 in
  t.pass_no <- t.pass_no + 1;
  let wrong =
    Array.fold_left
      (fun n l ->
        List.fold_left
          (fun n (idx, rbody) ->
            if judge ~expected:t.expected ~expected_extra:t.expected_extra ~log idx rbody
            then n
            else n + 1)
          n l)
      0 answers
  in
  {
    pass_s;
    verdict_s = List.concat (Array.to_list verdict_s);
    write_s = List.concat (Array.to_list write_s);
    attempted = Atomic.get attempted;
    errors = Atomic.get errors;
    wrong;
  }

(* The same pass's operations, in mix order, through [Service.decide] on
   a twin service holding the same DB: the lookup layer alone, with the
   cache states the wire pass saw. Returns each verdict's seconds. *)
let decide_pass t twin ~pass_no =
  Array.to_list t.ops
  |> List.mapi (fun i op -> (i, op))
  |> List.filter_map (fun (i, op) ->
         match op with
         | Verdict { idx; perturbed } ->
           let r = if perturbed then perturb ~pass_no t.stream.(idx) i else t.stream.(idx) in
           Some (snd (time (fun () -> Service.decide twin r)))
         | Install ->
           Service.install twin t.extra;
           None
         | Remove ->
           Service.remove_cve twin t.extra.Db.cve;
           None)

(* A service with the same DB whose server is stopped at once: only its
   in-process [decide] is used. *)
let twin () =
  let svc =
    Service.create ~workers:1 ~obs:(Obs.create ()) ~db:(Octane.harvest_db Octane.cves) ~port:0 ()
  in
  Service.stop svc;
  svc

(* Body- and line-cache hits over all verdict lines, from /metrics. *)
let cache_hit_ratio t =
  let _, body = Http.fetch ~port:(Service.port t.svc) "/metrics" in
  let value name =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ' ' line with
        | [ n; v ] when String.equal n name -> (try float_of_string v with _ -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' body)
  in
  let hits = value "service_cache_hits" and misses = value "service_cache_misses" in
  if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)
