module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Divisor selection (Algorithm 1) ---------- *)

let test_divisor_sets_shape () =
  (* y = (a&b) & (a&c): fanins of y are {ab, ac}; removal sets are the two
     singletons; replacement sets pair each remaining fanin with TFI nodes. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let ab = Graph.and_ g a b in
  let ac = Graph.and_ g a c in
  let y = Graph.and_ g ab ac in
  ignore (Graph.add_po g y);
  let sets = Core.Divisor.select g ~max_tfi:100 (Graph.node_of y) in
  check "nonempty" true (sets <> []);
  (* First set is a single fanin (remove-one). *)
  check_int "first set size" 1 (Array.length (List.hd sets));
  List.iter
    (fun s ->
      check "size 1 or 2" true (Array.length s >= 1 && Array.length s <= 2);
      check "target not a divisor" false (Array.mem (Graph.node_of y) s))
    sets;
  (* No duplicates. *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      check "no duplicate set" false (Hashtbl.mem tbl s);
      Hashtbl.replace tbl s ())
    sets

let test_divisor_iter_stops () =
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g in
  let x = Graph.and_ g a b in
  ignore (Graph.add_po g x);
  let count = ref 0 in
  Core.Divisor.iter_sets g ~max_tfi:100 (Graph.node_of x) (fun _ ->
      incr count;
      `Stop);
  check_int "stopped after one" 1 !count

(* ---------- The paper's worked example (Examples 1, 3, 4) ---------- *)

(* Signatures observed at divisors {u, z} and node v over the 5 selected PI
   patterns of Example 1: uz = {00, 10, 10, 01, 01}, v = {1, 0, 0, 0, 0}. *)
let example_sigs () =
  let u = Bitvec.of_string "01100" in
  let z = Bitvec.of_string "00011" in
  let v = Bitvec.of_string "10000" in
  (* Node layout: 0 unused, 1 = u, 2 = z, 3 = v. *)
  [| Bitvec.create 5; u; z; v |]

let test_example3_feasibility () =
  let sigs = example_sigs () in
  let care = Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  check "feasible (Example 3)" true (Core.Feasibility.ok care);
  check_int "three care tuples (Table II)" 3 care.Core.Care.care_count;
  Alcotest.(check (list int)) "tuples 00,01,10" [ 0; 1; 2 ] (Core.Care.care_tuples care)

let test_example4_resub_function () =
  let sigs = example_sigs () in
  let care = Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  let cover = Core.Resub.derive care in
  (* Expected v_hat = !u & !z (Table II with the don't-care at 11 set to 0). *)
  let tt = Logic.Cover.to_truth cover in
  let expected =
    Logic.Truth.band
      (Logic.Truth.bnot (Logic.Truth.var 2 0))
      (Logic.Truth.bnot (Logic.Truth.var 2 1))
  in
  check "v = NOR(u,z) (Example 4)" true (Logic.Truth.equal tt expected)

let test_example2_infeasibility () =
  (* Full exhaustive simulation of Table I: uz = 10 appears with v = 1 (at
     abcd=0001) and v = 0 (at abcd=0010): infeasible. *)
  let u = Bitvec.of_string "0111011101110111" in
  let z = Bitvec.of_string "0000110011001100" in
  let v = Bitvec.of_string "1100000000110000" in
  let sigs = [| Bitvec.create 16; u; z; v |] in
  let care = Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:16 () in
  check "infeasible (Example 2)" false (Core.Feasibility.ok care)

let test_care_unseen_tuples_are_dc () =
  let sigs = example_sigs () in
  let care = Core.Care.scan ~sigs ~node:3 ~divisors:[| 1; 2 |] ~rounds:5 () in
  let on, dc = Core.Resub.tables care in
  check "tuple 11 is dc" true (Logic.Truth.get dc 3);
  check "tuple 00 is on" true (Logic.Truth.get on 0);
  check "on and dc disjoint" true (Logic.Truth.is_const0 (Logic.Truth.band on dc))

(* ---------- LAC generation (Algorithm 2) ---------- *)

let redundant_circuit () =
  (* f = (a & b) | (a & b & c): node (a&b&c) is approximable/redundant-ish. *)
  let g = Graph.create () in
  let a = Graph.add_pi g and b = Graph.add_pi g and c = Graph.add_pi g in
  let ab = Graph.and_ g a b in
  let abc = Graph.and_ g ab c in
  ignore (Graph.add_po g (Aig.Builder.or_ g ab abc));
  g

let test_lac_generation () =
  let g = redundant_circuit () in
  let config = Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.1 in
  let rng = Logic.Rng.create 3 in
  let pats = Sim.Patterns.random rng ~npis:3 ~len:32 in
  let sigs = Sim.Engine.simulate g pats in
  let lacs = Core.Lac.generate g ~config ~sigs ~rounds:32 in
  check "found candidates" true (lacs <> []);
  List.iter
    (fun (lac : Core.Lac.t) ->
      check "non-negative gain" true (lac.Core.Lac.gain >= 0);
      check "divisors below target" true
        (Array.for_all (fun d -> d < lac.Core.Lac.target) lac.Core.Lac.divisors))
    lacs

let test_lac_respects_limit () =
  let g = redundant_circuit () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.1) with
      Core.Config.lac_limit = 1 }
  in
  let rng = Logic.Rng.create 3 in
  let pats = Sim.Patterns.random rng ~npis:3 ~len:32 in
  let sigs = Sim.Engine.simulate g pats in
  let lacs = Core.Lac.generate g ~config ~sigs ~rounds:32 in
  (* At most one LAC per node. *)
  let per_node = Hashtbl.create 8 in
  List.iter
    (fun (lac : Core.Lac.t) ->
      let n = Option.value ~default:0 (Hashtbl.find_opt per_node lac.Core.Lac.target) in
      Hashtbl.replace per_node lac.Core.Lac.target (n + 1))
    lacs;
  Hashtbl.iter (fun _ n -> check_int "L=1 respected" 1 n) per_node

(* ---------- Flow (Algorithm 3) ---------- *)

let test_flow_zero_threshold_keeps_function () =
  (* With threshold 0 and exhaustive evaluation, only error-free LACs are
     applied, so the result is exactly equivalent. *)
  let g = redundant_circuit () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.0) with
      Core.Config.eval_rounds = 8; max_iters = 20 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "equivalent" true (Util.equivalent g approx);
  check "report consistent" true (report.Core.Flow.output_ands = Graph.num_ands approx)

(* A NaN budget compares false against every candidate error, so the flow
   used to accept LACs until the circuit was gone. *)
let test_flow_rejects_bad_threshold () =
  List.iter
    (fun threshold ->
      let config = Core.Config.default ~metric:Errest.Metrics.Er ~threshold in
      match Core.Flow.run ~config (redundant_circuit ()) with
      | _ -> Alcotest.failf "Flow.run accepted threshold %h" threshold
      | exception Invalid_argument msg ->
          check "names the threshold" true (Util.contains msg "threshold"))
    [ Float.nan; -0.01 ]

let alsrac_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/alsrac.exe"

(* Run the CLI with stdin/stdout on /dev/null; its exit code and stderr. *)
let run_cli args =
  let err_file = Filename.temp_file "alsrac_cli" ".err" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process alsrac_exe (Array.of_list (alsrac_exe :: args)) null null err
  in
  Unix.close null;
  Unix.close err;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  let stderr = Circuit_io.Atomic_file.read err_file in
  Sys.remove err_file;
  (code, stderr)

let test_cli_rejects_nan_threshold () =
  let out = Filename.temp_file "alsrac_cli" ".aag" in
  Sys.remove out;
  List.iter
    (fun (flag, what) ->
      let code, stderr =
        run_cli
          [ "approx"; "ctrl"; "-m"; "er"; flag; "nan"; "--eval-rounds"; "256"; "-o"; out ]
      in
      check (flag ^ " nan exits non-zero") true (code <> 0);
      check (flag ^ " nan is reported") true (Util.contains stderr what);
      check (flag ^ " nan writes no circuit") false (Sys.file_exists out))
    [ ("-t", "--threshold"); ("--max-error", "--max-error") ]

let test_flow_reduces_area_under_er () =
  (* Random control logic (cavlc class) at ER 5%: 10 PIs, so the evaluation
     set is exhaustive and all flow errors are exact. *)
  let g = Circuits.Epfl_control.cavlc () in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.05) with
      Core.Config.eval_rounds = 2048; max_iters = 300; seed = 7 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "area reduced" true (Graph.num_ands approx < Graph.num_ands (Graph.compact g));
  check "sampled error within threshold" true
    (report.Core.Flow.final_est_error <= 0.05 +. 1e-9);
  (* Exhaustive evaluation: the measured error is exact. *)
  let exact = Errest.Metrics.evaluate Errest.Metrics.Er ~original:g ~approx in
  check "exact error within threshold" true (exact <= 0.05 +. 1e-9);
  check "interface preserved" true
    (Graph.num_pis approx = Graph.num_pis g && Graph.num_pos approx = Graph.num_pos g)

let test_flow_nmed () =
  let g = Circuits.Multipliers.wallace ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Nmed ~threshold:0.01) with
      Core.Config.eval_rounds = 256; max_iters = 200; seed = 11 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "area reduced" true (report.Core.Flow.output_ands < report.Core.Flow.input_ands);
  let exact = Errest.Metrics.evaluate Errest.Metrics.Nmed ~original:g ~approx in
  check "nmed within 2x threshold" true (exact <= 0.02)

let test_flow_deterministic () =
  let g = Circuits.Multipliers.array_mult ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.03) with
      Core.Config.eval_rounds = 256; max_iters = 100; seed = 13 }
  in
  let a1, r1 = Core.Flow.run ~config g in
  let a2, r2 = Core.Flow.run ~config g in
  check_int "same result size" (Graph.num_ands a1) (Graph.num_ands a2);
  check_int "same applied count" r1.Core.Flow.applied r2.Core.Flow.applied

let test_flow_rounds_shrink () =
  (* threshold 0 on an irredundant circuit: no (error-free, gainful) LAC
     exists, so N must shrink over the patience window and the flow stop. *)
  let g = Circuits.Adders.kogge_stone ~width:4 in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.0) with
      Core.Config.eval_rounds = 512; max_iters = 50; seed = 17; sim_rounds = 32 }
  in
  let approx, report = Core.Flow.run ~config g in
  check "terminates" true (report.Core.Flow.final_rounds <= 32);
  check "equivalent at zero threshold" true (Util.equivalent g approx)

let test_flow_depth_guard () =
  (* With a tight depth guard the result must stay within the bound; the
     kogge-stone adder is the circuit most tempted to serialize. *)
  let g = Circuits.Adders.kogge_stone ~width:8 in
  let original_depth = Aig.Topo.depth (Aig.Resyn.compress2 (Graph.compact g)) in
  let config =
    { (Core.Config.default ~metric:Errest.Metrics.Er ~threshold:0.10) with
      Core.Config.eval_rounds = 2048; max_iters = 100; seed = 19;
      max_depth_growth = 1.0 }
  in
  let approx, _ = Core.Flow.run ~config g in
  check "depth preserved" true (Aig.Topo.depth approx <= original_depth)

(* ---------- Golden outputs ----------

   Byte-identity pins for the whole flow: each row runs one configuration at
   jobs 1 and jobs 4 and must reproduce the recorded AIGER digest, event
   list, loop counters, stop reason and scoring-kernel counters exactly.
   A refactor of the flow loop that changes any of these changed the flow. *)

let stop_to_string = function
  | Core.Flow.Budget_exhausted -> "budget"
  | Core.Flow.Stalled -> "stalled"
  | Core.Flow.Max_iters -> "max-iters"
  | Core.Flow.Emptied -> "emptied"
  | Core.Flow.Timed_out -> "timed-out"

let golden_summary (g, (r : Core.Flow.report)) =
  let events =
    List.map
      (fun (e : Core.Flow.event) ->
        Printf.sprintf "%d %d %h %d %d" e.iteration e.target e.est_error
          e.ands_after e.rounds)
      r.Core.Flow.events
    |> String.concat ";"
  in
  let s = r.Core.Flow.scoring in
  let certify =
    match r.Core.Flow.certify with
    | None -> ""
    | Some c ->
        Printf.sprintf " certify=%d/%d/%d/%d/%d/%d" c.Core.Flow.exact_checks
          c.Core.Flow.exact_confirmed c.Core.Flow.exact_undecided
          c.Core.Flow.exact_refuted c.Core.Flow.lac_rechecks
          c.Core.Flow.lac_recheck_failures
  in
  let resub =
    match r.Core.Flow.resub with
    | None -> ""
    | Some x ->
        Printf.sprintf " resub=%d/%d/%d/%d/%d" x.Core.Resub_exact.passes
          x.Core.Resub_exact.targets x.Core.Resub_exact.feasible
          x.Core.Resub_exact.derived x.Core.Resub_exact.accepted
  in
  Printf.sprintf
    "aig=%s events=%d:%s applied=%d guard_rejects=%d recovered=%d \
     final_rounds=%d stop=%s scoring=%d/%d/%d/%d/%d/%d%s%s"
    (Digest.to_hex (Digest.string (Circuit_io.Aiger.graph_to_string g)))
    (List.length r.Core.Flow.events)
    (String.sub (Digest.to_hex (Digest.string events)) 0 12)
    r.Core.Flow.applied r.Core.Flow.guard_rejects r.Core.Flow.recovered_exns
    r.Core.Flow.final_rounds (stop_to_string r.Core.Flow.stop_reason)
    s.Errest.Batch.scored s.Errest.Batch.trivial s.Errest.Batch.early_exits
    s.Errest.Batch.frontier_nodes s.Errest.Batch.changed_pos
    s.Errest.Batch.changed_words certify resub

let golden_config metric threshold =
  { (Core.Config.default ~metric ~threshold) with Core.Config.seed = 7 }

let golden_run config g ~jobs =
  Core.Flow.run ~config:{ config with Core.Config.jobs } g

(* Kill after three accepted LACs, then resume: the resumed report carries
   the whole event history but only the resumed portion's scoring counters. *)
let golden_kill_resume config g ~jobs =
  let dir = Filename.temp_file "alsrac_golden" "" ^ ".d" in
  let killed =
    { config with
      Core.Config.jobs;
      fault = [ Core.Fault.Kill_after { applied = 3 } ] }
  in
  (match Core.Flow.run ~journal:dir ~config:killed g with
  | _ -> Alcotest.fail "expected the injected kill to fire"
  | exception Core.Fault.Killed -> ());
  Core.Flow.resume ~jobs dir

let enum_distr npis =
  let rng = Logic.Rng.create 29 in
  let rows = Array.init 48 (fun _ -> Array.init npis (fun _ -> Logic.Rng.bool rng)) in
  let weights = Array.init 48 (fun i -> float_of_int (1 + (i mod 5))) in
  Errest.Distr.enum ~rows ~weights

let cavlc_er1 = golden_config Errest.Metrics.Er 0.01

let golden_rows =
  [
    ( "cavlc er 1% compress2",
      golden_run cavlc_er1 (Circuits.Epfl_control.cavlc ()),
      "aig=654c1a831a777bc900c649519ac75eab events=12:2b9de8708de8 \
       applied=12 guard_rejects=0 recovered=0 final_rounds=4 stop=stalled \
       scoring=28791/13245/14/48079/17059/119983" );
    ( "wallace4 mred",
      golden_run
        { (golden_config Errest.Metrics.Mred 0.02) with Core.Config.eval_rounds = 256 }
        (Circuits.Multipliers.wallace ~width:4),
      "aig=5ad1ce1f018b26338354873df636f65c events=23:e7b68519a2ee \
       applied=23 guard_rejects=0 recovered=0 final_rounds=4 stop=budget \
       scoring=8026/5056/2/27352/6536/11153" );
    ( "exact resub",
      golden_run
        { cavlc_er1 with Core.Config.exact_resub = true; max_iters = 6 }
        (Circuits.Epfl_control.cavlc ()),
      "aig=2e2b6b4ff95ac0e3076ff26f8b351c7f events=6:7c203b1b9837 \
       applied=6 guard_rejects=0 recovered=0 final_rounds=32 stop=max-iters \
       scoring=1701/1351/4/711/346/1928 resub=3/857/41/9/2" );
    ( "enum distribution",
      golden_run
        { (golden_config Errest.Metrics.Er 0.05) with
          Core.Config.distr = enum_distr 8 }
        (Circuits.Multipliers.array_mult ~width:4),
      "aig=d969b6aeaa4ce8514bc83530dd72f4ef events=16:33da558d9a67 \
       applied=16 guard_rejects=0 recovered=0 final_rounds=4 stop=budget \
       scoring=7555/3371/17/48123/8480/4167" );
    ( "certify exact",
      golden_run
        { cavlc_er1 with Core.Config.certify_exact = true; max_iters = 15 }
        (Circuits.Epfl_control.cavlc ()),
      "aig=654c1a831a777bc900c649519ac75eab events=12:2b9de8708de8 \
       applied=12 guard_rejects=0 recovered=0 final_rounds=4 stop=stalled \
       scoring=28791/13245/14/48079/17059/119983 certify=14/14/0/0/12/0" );
    ( "fault: guard trips",
      golden_run
        { cavlc_er1 with
          Core.Config.max_iters = 15;
          fault = [ Core.Fault.Corrupt_lac { iteration = 2 } ] }
        (Circuits.Epfl_control.cavlc ()),
      "aig=5f3ce819798e47431292fe12a1d3ee76 events=12:657349b3156c \
       applied=12 guard_rejects=1 recovered=0 final_rounds=4 stop=stalled \
       scoring=29080/13380/13/48473/17214/122157" );
    ( "fault: recovered exception",
      golden_run
        { cavlc_er1 with
          Core.Config.max_iters = 15;
          fault = [ Core.Fault.Raise_at { iteration = 3 } ] }
        (Circuits.Epfl_control.cavlc ()),
      "aig=86b93e757d53fbc0c36b67ea2ca1218a events=12:a3f9e358ed32 \
       applied=12 guard_rejects=0 recovered=1 final_rounds=4 stop=stalled \
       scoring=28800/13150/13/48453/17164/120789" );
    ( "kill and resume",
      golden_kill_resume cavlc_er1 (Circuits.Epfl_control.cavlc ()),
      "aig=654c1a831a777bc900c649519ac75eab events=12:2b9de8708de8 \
       applied=12 guard_rejects=0 recovered=0 final_rounds=4 stop=stalled \
       scoring=27916/12540/11/47717/16892/119042" );
  ]

let golden_tests =
  List.concat_map
    (fun (name, run, expected) ->
      List.map
        (fun jobs ->
          Alcotest.test_case (Printf.sprintf "%s, jobs %d" name jobs) `Slow
            (fun () ->
              Alcotest.(check string) "golden summary" expected
                (golden_summary (run ~jobs))))
        [ 1; 4 ])
    golden_rows

let () =
  Alcotest.run "core-alsrac"
    [
      ( "divisors",
        [
          Alcotest.test_case "set shapes" `Quick test_divisor_sets_shape;
          Alcotest.test_case "early stop" `Quick test_divisor_iter_stops;
        ] );
      ( "paper-examples",
        [
          Alcotest.test_case "example 3: feasibility" `Quick test_example3_feasibility;
          Alcotest.test_case "example 4: resub function" `Quick test_example4_resub_function;
          Alcotest.test_case "example 2: infeasibility" `Quick test_example2_infeasibility;
          Alcotest.test_case "unseen tuples are dc" `Quick test_care_unseen_tuples_are_dc;
        ] );
      ( "lac",
        [
          Alcotest.test_case "generation" `Quick test_lac_generation;
          Alcotest.test_case "limit" `Quick test_lac_respects_limit;
        ] );
      ( "flow",
        [
          Alcotest.test_case "zero threshold" `Quick test_flow_zero_threshold_keeps_function;
          Alcotest.test_case "er reduces area" `Quick test_flow_reduces_area_under_er;
          Alcotest.test_case "nmed" `Quick test_flow_nmed;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "rounds shrink" `Quick test_flow_rounds_shrink;
          Alcotest.test_case "depth guard" `Quick test_flow_depth_guard;
          Alcotest.test_case "nan threshold rejected" `Quick test_flow_rejects_bad_threshold;
          Alcotest.test_case "cli nan threshold rejected" `Quick
            test_cli_rejects_nan_threshold;
        ] );
      ("golden", golden_tests);
    ]
