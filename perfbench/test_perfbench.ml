(* The benchmark's own tests, at tiny sizes: every oracle trips on a
   wrong answer, and a seed fixes the inputs. *)

open Perfbench
module Engine = Jitbull_jit.Engine
module Jitbull = Jitbull_core.Jitbull
module Db = Jitbull_core.Db
module Proto = Jitbull_service.Proto
module V = Jitbull_vdc.Demonstrators
module VC = Jitbull_passes.Vuln_config
module Prng = Jitbull_util.Prng

let off = Measure.Layers.create ~on:false
let check = Alcotest.(check bool)

let program name source reference = Octane.Program { name; source; reference }

let test_program_oracle () =
  let cfg = Engine.default_config in
  check "right reference" true (Octane.run_job off cfg (program "p" "print(1 + 2);" "3\n"));
  check "wrong reference" false (Octane.run_job off cfg (program "p" "print(1 + 2);" "4\n"))

let test_exploit_oracle () =
  let d = V.find VC.CVE_2019_17026 in
  let job = Octane.Exploit { name = d.V.name; source = d.V.source; expected = d.V.expected } in
  let unprotected = Jitbull.config ~vulns:Octane.vulns (Db.create ()) in
  let protected_ = Jitbull.config ~vulns:Octane.vulns (Octane.harvest_db [ VC.CVE_2019_17026 ]) in
  check "unblocked exploit trips" false (Octane.run_job off unprotected job);
  check "blocked exploit passes" true (Octane.run_job off protected_ job)

(* A hot loop crosses the Ion threshold, so the recording keeps it. *)
let hot =
  "function f(x) { return x * 2 + 1; } var t = 0;\n\
   for (var i = 0; i < 3000; i++) t = f(t) % 97; print(t);"

let test_replay_oracle () =
  let db = Octane.harvest_db Octane.cves in
  let cfg = Jitbull.config ~policy_cache:false ~vulns:Octane.vulns db in
  let tierups = Replay.record_source cfg hot in
  check "recorded a tier-up" true (tierups <> []);
  let t = { Replay.db; tierups = [||]; rng = Prng.create 1; obs = Jitbull_obs.Obs.create () } in
  List.iter
    (fun (tu : Replay.tierup) ->
      check "engine verdict replays" true (Replay.replay_one t off tu);
      let wrong =
        match tu.Replay.verdict with Engine.Forbid_jit -> Engine.Allow | _ -> Engine.Forbid_jit
      in
      check "wrong verdict trips" false
        (Replay.replay_one t off { tu with Replay.verdict = wrong }))
    tierups

let test_verdict_oracle () =
  let resp verdict gen =
    Proto.encode_resps
      [ { Proto.vs_id = 0; vs_verdict = verdict; vs_passes = []; vs_matched = [];
          vs_generation = gen; vs_cached = false } ]
  in
  let log = Hashtbl.create 2 in
  Hashtbl.replace log 4 false;
  Hashtbl.replace log 5 true;
  let judge idx body =
    Verdicts.judge ~expected:[| `Allow |] ~expected_extra:[| `Forbid |] ~log idx body
  in
  check "base DB verdict" true (judge 0 (resp `Allow 4));
  check "extra-entry verdict" true (judge 0 (resp `Forbid 5));
  check "wrong verdict trips" false (judge 0 (resp `Forbid 4));
  check "unknown generation trips" false (judge 0 (resp `Allow 6));
  check "wrong id trips" false (judge 1 (resp `Allow 4));
  check "garbage trips" false (judge 0 "not json")

let test_mix_seeded () =
  let a = Verdicts.mix ~seed:7 ~stream_len:50 and b = Verdicts.mix ~seed:7 ~stream_len:50 in
  check "same seed, same mix" true (a = b);
  check "other seed, other mix" false (a = Verdicts.mix ~seed:8 ~stream_len:50);
  let writes =
    Array.to_list a |> List.filter (fun op -> op = Verdicts.Install || op = Verdicts.Remove)
  in
  check "writes balance" true
    (List.length (List.filter (( = ) Verdicts.Install) writes) * 2 = List.length writes)

let test_program_order_seeded () =
  let order seed =
    let jobs =
      Array.init 8 (fun k ->
          program (string_of_int k) (Printf.sprintf "print(%d);" k) (Printf.sprintf "%d\n" k))
    in
    let t = { Octane.db = Db.create (); jobs; rng = Prng.create seed } in
    List.concat_map
      (fun _ ->
        let p = Octane.run_pass t off in
        Alcotest.(check (list string)) "tiny programs pass" [] p.Octane.failures;
        List.map fst p.Octane.op_s)
      [ 1; 2 ]
  in
  check "same seed, same order" true (order 3 = order 3);
  check "other seed, other order" false (order 3 = order 4)

(* Reference times: without calibration they are the wall times; with it
   every operation is timed, in order, and grouped between slices. *)
let test_run_ops () =
  let seen = ref [] in
  let plain = Measure.run_ops ~host:false 5 (fun i -> seen := i :: !seen) in
  Alcotest.(check (list int)) "every op, in order" [ 0; 1; 2; 3; 4 ] (List.rev !seen);
  check "wall = reference" true (Array.for_all (fun (w, r) -> w = r) plain);
  let work _ = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  let timed = Measure.run_ops ~host:true ~every:2 5 work in
  check "one time per op" true (Array.length timed = 5);
  check "positive reference times" true (Array.for_all (fun (w, r) -> w > 0.0 && r > 0.0) timed)

let () =
  Alcotest.run "perfbench"
    [
      ( "oracles",
        [
          Alcotest.test_case "program output" `Quick test_program_oracle;
          Alcotest.test_case "exploit neutralized" `Quick test_exploit_oracle;
          Alcotest.test_case "replayed verdict" `Quick test_replay_oracle;
          Alcotest.test_case "remote verdict" `Quick test_verdict_oracle;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "request mix" `Quick test_mix_seeded;
          Alcotest.test_case "program order" `Quick test_program_order_seeded;
        ] );
      ("timing", [ Alcotest.test_case "reference times" `Quick test_run_ops ]);
    ]
