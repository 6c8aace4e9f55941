(* Resilience layer: journaled checkpoint/resume, guarded transforms with
   rollback + quarantine, and fault injection proving each recovery path. *)

module Graph = Aig.Graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A unique run directory per test.  [temp_file] guarantees uniqueness
   across processes; the journal lives next to the (empty) marker file. *)
let fresh_dir () = Filename.temp_file "alsrac_resilience" "" ^ ".d"

(* All tests drive the same small flow: cavlc has 10 PIs, so the evaluation
   sample is exhaustive and every error below is exact. *)
let base_config =
  { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
    Core.Config.eval_rounds = 2048; max_iters = 40; seed = 7 }

let circuit () = Circuits.Epfl_control.cavlc ()

(* Uninterrupted reference run, shared by the determinism tests. *)
let baseline = lazy (Core.Flow.run ~config:base_config (circuit ()))

(* ---------- Journal serialization ---------- *)

let test_config_roundtrip () =
  let c =
    { (Core.Config.default ~metric:Errest.Metrics.Nmed ~threshold:0.015625) with
      Core.Config.seed = 42;
      sim_rounds = 48;
      scale = 0.85;
      max_seconds = infinity;
      input_probs = Some [| 0.25; 0.5; 0.75 |];
      guard = false }
  in
  let c' = Core.Journal.config_of_string (Core.Journal.config_to_string c) in
  check "config round-trips" true (c = c')

let test_config_rejects_garbage () =
  (match Core.Journal.config_of_string "definitely not a config" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  (* A well-formed manifest whose threshold is not a float. *)
  let banana =
    Core.Journal.config_to_string
      (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.5)
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           if String.starts_with ~prefix:"threshold " l then "threshold banana" else l)
    |> String.concat "\n"
  in
  match Core.Journal.config_of_string banana with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ()

let test_journal_record_load_roundtrip () =
  let dir = fresh_dir () in
  let g = circuit () in
  let original = Graph.compact g in
  let j = Core.Journal.create ~dir ~config:base_config ~original in
  let state =
    {
      Core.Journal.rng = Logic.Rng.of_state (-4676534741114219574L);
      rounds = 28;
      patience = 2;
      shrinks_at_floor = 1;
      applied = 3;
      iteration = 9;
      accepts_since_full = 3;
      guard_rejects = 1;
      recovered_exns = 2;
      quarantined = [ 17; 42 ];
      events =
        [
          { Core.Journal.iteration = 9; target = 31; est_error = 0.015625;
            ands_after = 600; rounds = 28 };
          { Core.Journal.iteration = 4; target = 12; est_error = 0.0;
            ands_after = 610; rounds = 32 };
        ];
    }
  in
  Core.Journal.record j state original;
  let r = Core.Journal.load dir in
  check "no degradation" true (r.Core.Journal.degraded = None);
  (match r.Core.Journal.state with
  | None -> Alcotest.fail "expected a checkpoint"
  | Some s -> check "state round-trips" true (s = state));
  check_int "graph round-trips" (Graph.num_ands original)
    (Graph.num_ands r.Core.Journal.graph);
  check "config round-trips" true (r.Core.Journal.config = base_config);
  (* Files of a previous format version are refused with one clear message,
     never converted: version 1 still carried candidate-selection policy
     state, version 2 the since-removed config knobs and its own event
     framing. *)
  let rewrite_header path old_header =
    let text = Circuit_io.Atomic_file.read path in
    let nl = String.index text '\n' in
    Circuit_io.Atomic_file.write path
      (old_header ^ String.sub text nl (String.length text - nl));
    text
  in
  let expect_outdated what old_header =
    match Core.Journal.load dir with
    | _ -> Alcotest.fail ("accepted an outdated " ^ what)
    | exception Failure msg ->
        check ("names the old " ^ what ^ " version") true (Util.contains msg old_header);
        check "asks for a re-run" true (Util.contains msg "re-run")
  in
  let manifest = Filename.concat dir "manifest" in
  let checkpoint = Filename.concat dir "checkpoint" in
  List.iter
    (fun v ->
      let current = rewrite_header manifest ("alsrac-journal " ^ v) in
      expect_outdated "manifest" ("alsrac-journal " ^ v);
      Circuit_io.Atomic_file.write manifest current;
      let current = rewrite_header checkpoint ("alsrac-checkpoint " ^ v) in
      expect_outdated "checkpoint" ("alsrac-checkpoint " ^ v);
      Circuit_io.Atomic_file.write checkpoint current)
    [ "1"; "2" ]

(* ---------- Kill-and-resume determinism ---------- *)

let run_killed_journaled dir ~kill_after =
  let config =
    { base_config with
      Core.Config.fault = [ Core.Fault.Kill_after { applied = kill_after } ] }
  in
  match Core.Flow.run ~journal:dir ~config (circuit ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ()

let test_kill_and_resume_determinism () =
  let a_full, r_full = Lazy.force baseline in
  check "baseline applied enough LACs" true (r_full.Core.Flow.applied >= 4);
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let a_res, r_res = Core.Flow.resume dir in
  check "resumed flag set" true r_res.Core.Flow.resumed;
  check_int "same final AND count" (Graph.num_ands a_full) (Graph.num_ands a_res);
  check_int "same applied count" r_full.Core.Flow.applied r_res.Core.Flow.applied;
  check_int "same event history" (List.length r_full.Core.Flow.events)
    (List.length r_res.Core.Flow.events);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

let test_double_kill_and_resume () =
  (* Crash the resumed run too: resilience must compose. *)
  let a_full, r_full = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:2;
  (match Core.Flow.resume ~fault:[ Core.Fault.Kill_after { applied = 4 } ] dir with
  | _ -> Alcotest.fail "expected the second kill to fire"
  | exception Core.Fault.Killed -> ());
  let a_res, r_res = Core.Flow.resume dir in
  check_int "same final AND count" (Graph.num_ands a_full) (Graph.num_ands a_res);
  check_int "same applied count" r_full.Core.Flow.applied r_res.Core.Flow.applied;
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

(* ---------- Journal corruption ---------- *)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let test_resume_from_truncated_checkpoint () =
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let cp = Filename.concat dir "checkpoint" in
  Core.Fault.truncate_file cp ~keep:(file_size cp / 2);
  let r = Core.Journal.load dir in
  check "torn checkpoint detected" true (r.Core.Journal.degraded <> None);
  check "fell back to the previous checkpoint" true (r.Core.Journal.state <> None);
  let a_res, _ = Core.Flow.resume dir in
  check_int "same final AND count despite torn checkpoint" (Graph.num_ands a_full)
    (Graph.num_ands a_res);
  check "identical PO behaviour" true (Util.equivalent a_full a_res)

let test_resume_from_garbled_checkpoint () =
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  let cp = Filename.concat dir "checkpoint" in
  Core.Fault.corrupt_byte cp ~pos:(file_size cp / 2);
  let r = Core.Journal.load dir in
  check "bit rot detected" true (r.Core.Journal.degraded <> None);
  let a_res, _ = Core.Flow.resume dir in
  check_int "same final AND count despite bit rot" (Graph.num_ands a_full)
    (Graph.num_ands a_res)

let test_resume_after_total_checkpoint_loss () =
  (* Both snapshots corrupt: the journal falls back to a fresh start from
     the recorded original, which by determinism still converges to the
     baseline result. *)
  let a_full, _ = Lazy.force baseline in
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:3;
  Core.Fault.truncate_file (Filename.concat dir "checkpoint") ~keep:7;
  Core.Fault.truncate_file (Filename.concat dir "checkpoint.prev") ~keep:7;
  let r = Core.Journal.load dir in
  check "degraded to fresh start" true
    (r.Core.Journal.degraded <> None && r.Core.Journal.state = None);
  let a_res, r_res = Core.Flow.resume dir in
  check "fresh restart is not flagged resumed" true (not r_res.Core.Flow.resumed);
  check_int "same final AND count from scratch" (Graph.num_ands a_full)
    (Graph.num_ands a_res)

let test_corrupt_manifest_fails_cleanly () =
  let dir = fresh_dir () in
  run_killed_journaled dir ~kill_after:2;
  Core.Fault.truncate_file (Filename.concat dir "manifest") ~keep:25;
  match Core.Journal.load dir with
  | _ -> Alcotest.fail "expected Failure on a corrupt manifest"
  | exception Failure _ -> ()

(* ---------- Guarded transforms ---------- *)

let test_corrupt_lac_rolled_back_and_quarantined () =
  (* Corrupt the chosen LAC of the first five iterations: the guard's
     signature probe must catch the mismatch, roll back, and quarantine. *)
  let fault =
    List.init 5 (fun i -> Core.Fault.Corrupt_lac { iteration = i + 1 })
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check "guard fired" true (report.Core.Flow.guard_rejects >= 1);
  check "targets quarantined" true (report.Core.Flow.quarantined >= 1);
  (* Exhaustive evaluation: the exact error still respects the budget. *)
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9);
  check "interface preserved" true
    (Graph.num_pis approx = Graph.num_pis g && Graph.num_pos approx = Graph.num_pos g)

let test_corrupt_lac_without_guard_poisons () =
  (* Sanity check on the harness itself: with the guard off, the same
     corruption silently commits a wrong graph (the whole point of keeping
     the guard always-on). *)
  let fault = List.init 5 (fun i -> Core.Fault.Corrupt_lac { iteration = i + 1 }) in
  let config = { base_config with Core.Config.fault; guard = false } in
  let _, report = Core.Flow.run ~config (circuit ()) in
  check "no guard, no rollback" true (report.Core.Flow.guard_rejects = 0)

let test_signature_flip_rolled_back () =
  (* Flip one evaluation-signature bit on every node for a few iterations:
     every prediction made from the skewed signatures disagrees with the
     re-measured truth, so the guard must reject those commits. *)
  let fault =
    List.init 3 (fun i -> Core.Fault.Flip_signatures { iteration = i + 1; bit = 0 })
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check "guard fired on skewed signatures" true (report.Core.Flow.guard_rejects >= 1);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9)

let test_injected_exception_recovered () =
  let fault =
    [ Core.Fault.Raise_at { iteration = 1 }; Core.Fault.Raise_at { iteration = 3 } ]
  in
  let config = { base_config with Core.Config.fault } in
  let g = circuit () in
  let approx, report = Core.Flow.run ~config g in
  check_int "both exceptions recovered" 2 report.Core.Flow.recovered_exns;
  check "flow still made progress" true (report.Core.Flow.applied >= 1);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "error still within threshold" true (exact <= 0.05 +. 1e-9)

let test_faulty_run_still_journals () =
  (* Faults and journaling compose: a run surviving injected corruption
     still checkpoints, and its resume completes. *)
  let dir = fresh_dir () in
  let fault =
    [ Core.Fault.Corrupt_lac { iteration = 2 };
      Core.Fault.Raise_at { iteration = 4 };
      Core.Fault.Kill_after { applied = 3 } ]
  in
  let config = { base_config with Core.Config.fault } in
  (match Core.Flow.run ~journal:dir ~config (circuit ()) with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  let _, report = Core.Flow.resume dir in
  check "resume completed" true (report.Core.Flow.applied >= 3);
  check "fault counters persisted across resume" true
    (report.Core.Flow.guard_rejects >= 1 || report.Core.Flow.recovered_exns >= 1)

(* ---------- Stop reasons ---------- *)

(* A cancel hook that never cancels, but sleeps [seconds] on the flow
   loop's first once-per-iteration poll, so that iteration overruns a
   [max_seconds] budget of at most [seconds].  The same hook also serves as
   the pool's chunk-boundary check; those polls are told apart by their
   caller's frame. *)
let sleep_on_first_iteration seconds =
  let slept = ref false in
  fun () ->
    (if not !slept then
       match Printexc.backtrace_slots (Printexc.get_callstack 2) with
       | Some slots when Array.length slots = 2 -> (
           match Printexc.Slot.name slots.(1) with
           | Some name when String.starts_with ~prefix:"Core__Flow." name ->
               slept := true;
               Unix.sleepf seconds
           | Some _ | None -> ())
       | Some _ | None -> ());
    false

let test_timed_out_only_from_the_clock () =
  (* The overrunning iteration is also the one that reaches [max_iters]:
     the run ended because of the cap, and must say so. *)
  let config = { base_config with Core.Config.max_seconds = 1.0; max_iters = 1 } in
  let _, r = Core.Flow.run ~cancel:(sleep_on_first_iteration 1.0) ~config (circuit ()) in
  check "the budget was overrun" true (r.Core.Flow.wall_s >= 1.0);
  check_int "the slow iteration applied its LAC" 1 r.Core.Flow.applied;
  check "genuine stop reason kept" true (r.Core.Flow.stop_reason = Core.Flow.Max_iters);
  (* Without the cap, the next loop check sees the clock. *)
  let config = { config with Core.Config.max_iters = 10_000 } in
  let _, r = Core.Flow.run ~cancel:(sleep_on_first_iteration 1.0) ~config (circuit ()) in
  check_int "one iteration ran" 1 r.Core.Flow.applied;
  check "clock ends the run" true (r.Core.Flow.stop_reason = Core.Flow.Timed_out)

let () =
  Alcotest.run "resilience"
    [
      ( "journal",
        [
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "config rejects garbage" `Quick test_config_rejects_garbage;
          Alcotest.test_case "record/load round-trip" `Quick
            test_journal_record_load_roundtrip;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume determinism" `Slow
            test_kill_and_resume_determinism;
          Alcotest.test_case "double kill and resume" `Slow test_double_kill_and_resume;
          Alcotest.test_case "truncated checkpoint" `Slow
            test_resume_from_truncated_checkpoint;
          Alcotest.test_case "garbled checkpoint" `Slow
            test_resume_from_garbled_checkpoint;
          Alcotest.test_case "total checkpoint loss" `Slow
            test_resume_after_total_checkpoint_loss;
          Alcotest.test_case "corrupt manifest" `Quick test_corrupt_manifest_fails_cleanly;
        ] );
      ( "guard",
        [
          Alcotest.test_case "corrupt LAC rolled back" `Slow
            test_corrupt_lac_rolled_back_and_quarantined;
          Alcotest.test_case "corrupt LAC without guard" `Slow
            test_corrupt_lac_without_guard_poisons;
          Alcotest.test_case "signature flip rolled back" `Slow
            test_signature_flip_rolled_back;
          Alcotest.test_case "injected exception recovered" `Slow
            test_injected_exception_recovered;
          Alcotest.test_case "faults + journal compose" `Slow test_faulty_run_still_journals;
        ] );
      ( "stop",
        [
          Alcotest.test_case "timed-out only from the clock" `Slow
            test_timed_out_only_from_the_clock;
        ] );
    ]
