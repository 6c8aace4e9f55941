(* lib/explore: canonical Pareto fronts (unit + property tests), budget
   ladders, and the corpus sweep's resume/shard/jobs determinism — down to
   a SIGKILL of the real CLI mid-corpus. *)

module F = Explore.Front
module Rng = Logic.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let fresh_dir () = Filename.temp_file "alsrac_explore" "" ^ ".d"

(* ---------- Front: unit ---------- *)

let p ?(tag = "t") err cost = { F.err; cost; tag }

let test_front_basics () =
  let f = F.of_points [ p 0.1 10.0; p 0.2 5.0; p 0.3 2.0 ] in
  check_int "incomparable points all kept" 3 (F.size f);
  let f = F.insert f (p 0.15 20.0) in
  check_int "dominated insert is a no-op" 3 (F.size f);
  let f = F.insert f (p 0.05 1.0) in
  check_int "dominating insert evicts everything" 1 (F.size f);
  check "result is an antichain" true (F.is_antichain f)

let test_front_tag_tiebreak () =
  (* Equal coordinates: the lexicographically smaller tag wins, in both
     insertion orders — that is what makes the front canonical. *)
  let a = F.insert (F.insert F.empty (p ~tag:"b" 0.1 1.0)) (p ~tag:"a" 0.1 1.0) in
  let b = F.insert (F.insert F.empty (p ~tag:"a" 0.1 1.0)) (p ~tag:"b" 0.1 1.0) in
  check "same front either way" true (F.equal a b);
  check_str "smaller tag kept" "a" (List.hd (F.points a)).F.tag

let test_front_serialization () =
  let f = F.of_points [ p ~tag:"x" 0.125 3.0; p ~tag:"y" 0.0625 7.5 ] in
  let s = F.to_string f in
  check "round-trips" true (F.equal f (F.of_string s));
  check_str "byte-stable" s (F.to_string (F.of_string s));
  (match F.of_string "p nonsense 1.0 t" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  match F.insert F.empty (p ~tag:"bad tag" 0.1 1.0) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------- Front: properties ---------- *)

(* Coarse coordinate grid so random cases hit equal coordinates and exact
   dominance often; tags from a small pool to exercise the tie-break. *)
let gen_points seed =
  let rng = Rng.create seed in
  List.init
    (1 + Rng.int rng 40)
    (fun _ ->
      {
        F.err = float_of_int (Rng.int rng 8) /. 8.0;
        cost = float_of_int (Rng.int rng 8);
        tag = Printf.sprintf "t%d" (Rng.int rng 6);
      })

(* Shrink a point list by dropping one element at a time. *)
let shrink_points ps =
  List.init (List.length ps) (fun i -> List.filteri (fun j _ -> j <> i) ps)

let repr_points ps =
  String.concat "; "
    (List.map (fun q -> Printf.sprintf "(%g,%g,%s)" q.F.err q.F.cost q.F.tag) ps)

let check_prop ~name prop =
  Verify.Prop.check_value_exn ~name ~seed:1 ~count:200 ~gen:gen_points
    ~shrink:shrink_points ~repr:repr_points prop

let test_prop_antichain () =
  check_prop ~name:"front-antichain" (fun ps ->
      if F.is_antichain (F.of_points ps) then Ok ()
      else Error "of_points is not an antichain")

let test_prop_dominated_never_survives () =
  check_prop ~name:"front-no-dominated" (fun ps ->
      let f = F.of_points ps in
      let offender =
        List.find_opt
          (fun m -> List.exists (fun q -> F.dominates q m) ps)
          (F.points f)
      in
      match offender with
      | None -> Ok ()
      | Some m ->
          Error (Printf.sprintf "member (%g,%g,%s) is dominated" m.F.err m.F.cost m.F.tag))

let test_prop_merge_equals_union () =
  check_prop ~name:"front-merge-union" (fun ps ->
      let rng = Rng.create (Hashtbl.hash ps) in
      let nshards = 1 + Rng.int rng 4 in
      let parts = Array.make nshards [] in
      List.iteri (fun i q -> parts.(i mod nshards) <- q :: parts.(i mod nshards)) ps;
      let merged =
        Array.fold_left (fun acc part -> F.merge acc (F.of_points part)) F.empty parts
      in
      let whole = F.of_points ps in
      if not (F.equal merged whole) then
        Error (Printf.sprintf "merge of %d shard fronts differs from union front" nshards)
      else if F.to_string merged <> F.to_string whole then
        Error "equal fronts serialized to different bytes"
      else Ok ())

(* ---------- Ladder ---------- *)

let test_ladder_parse () =
  (match Explore.Ladder.parse "default" with
  | Ok ls -> check_int "three default ladders" 3 (List.length ls)
  | Error e -> Alcotest.fail e);
  match Explore.Ladder.parse "er=0.01,0.05;nmed=0.001" with
  | Ok [ a; b ] ->
      check "er ladder" true (a.Explore.Ladder.metric = Errest.Metrics.Er);
      check "nmed ladder" true (b.Explore.Ladder.metric = Errest.Metrics.Nmed);
      check_int "two er budgets" 2 (List.length a.Explore.Ladder.budgets)
  | Ok _ -> Alcotest.fail "expected two ladders"
  | Error e -> Alcotest.fail e

let test_ladder_roundtrip_and_rejects () =
  (match Explore.Ladder.parse "er=0.001,0.03;mred=0.01,0.1" with
  | Ok ls -> (
      let spec = Explore.Ladder.to_spec ls in
      match Explore.Ladder.parse spec with
      | Ok ls' -> check "spec round-trips exactly" true (ls = ls')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Explore.Ladder.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" bad)
      | Error _ -> ())
    [ "er=0.05,0.01"; "er=0"; "er=2.0"; "banana=0.1"; "er=0.01;er=0.05"; "er=" ]

let test_ladder_max_budgets () =
  (* Worst-case and absolute-distance ladders are not rate-like: budgets
     above 1 are legal (a max-ED ladder of 1,3,7), zero is not, and the
     rate-like metrics keep their (0, 1] range. *)
  (match Explore.Ladder.parse "maxed=1,3,7" with
  | Ok [ l ] ->
      check "maxed metric" true (l.Explore.Ladder.metric = Errest.Metrics.Maxed);
      check "budgets kept" true (l.Explore.Ladder.budgets = [ 1.0; 3.0; 7.0 ])
  | Ok _ -> Alcotest.fail "expected one ladder"
  | Error e -> Alcotest.fail e);
  (match Explore.Ladder.parse "mse=0.5,2.5;maxhd=2" with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "expected two ladders"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Explore.Ladder.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted bad spec %S" bad)
      | Error _ -> ())
    [ "maxed=0"; "maxed=3,1"; "maxed=1,1"; "nmhd=1.5"; "maxred=inf"; "mhd=-1" ];
  match Explore.Ladder.parse "maxed=1,3,7;maxred=0.5,2" with
  | Ok ls -> (
      match Explore.Ladder.parse (Explore.Ladder.to_spec ls) with
      | Ok ls' -> check "max ladders round-trip through hex spec" true (ls = ls')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* ---------- Sweep: resume idempotence, shard and jobs invariance ---------- *)

let tiny_spec dir =
  {
    Explore.Sweep.dir;
    benchmarks = [ "ctrl"; "int2float" ];
    ladders =
      [ { Explore.Ladder.metric = Errest.Metrics.Er; budgets = [ 0.01; 0.05 ] } ];
    seed = 1;
    eval_rounds = 128;
    max_iters = 3;
    shards = 1;
    shard_id = 0;
    jobs = 1;
    distr = Errest.Distr.Unif;
  }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let front_files dir =
  let d = Filename.concat dir "fronts" in
  Sys.readdir d |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat d f)))

let run_spec spec =
  match Explore.Sweep.run spec with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_sweep_smoke_and_resume () =
  let dir = fresh_dir () in
  let p1 = run_spec (tiny_spec dir) in
  check_int "four points" 4 p1.Explore.Sweep.total;
  check_int "all ran" 4 p1.Explore.Sweep.ran;
  let fronts1 = front_files dir in
  check "per-bench and corpus fronts written" true (List.length fronts1 = 3);
  (* Resume onto the completed directory: nothing re-runs, fronts stay
     byte-identical.  The CLI flags are deliberately different — the
     stored manifest must supersede them. *)
  let p2 = run_spec { (tiny_spec dir) with Explore.Sweep.seed = 999; jobs = 2 } in
  check_int "nothing re-ran" 0 p2.Explore.Sweep.ran;
  check_int "all found done" 4 p2.Explore.Sweep.already_done;
  check "fronts unchanged" true (front_files dir = fronts1)

let test_sweep_shard_and_jobs_invariance () =
  let ref_dir = fresh_dir () in
  let _ = run_spec (tiny_spec ref_dir) in
  let reference = front_files ref_dir in
  (* Two shard processes over a shared directory. *)
  let sharded = fresh_dir () in
  let _ = run_spec { (tiny_spec sharded) with Explore.Sweep.shards = 2; shard_id = 0 } in
  let p = run_spec { (tiny_spec sharded) with Explore.Sweep.shards = 2; shard_id = 1 } in
  check_int "shard 1 owns half" 2 p.Explore.Sweep.owned;
  check "sharded fronts byte-identical" true (front_files sharded = reference);
  (* Same sweep at jobs = 2. *)
  let jobs2 = fresh_dir () in
  let _ = run_spec { (tiny_spec jobs2) with Explore.Sweep.jobs = 2 } in
  check "jobs=2 fronts byte-identical" true (front_files jobs2 = reference)

let test_sweep_rejects () =
  (match Explore.Sweep.run { (tiny_spec (fresh_dir ())) with Explore.Sweep.shards = 2; shard_id = 2 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted shard_id >= shards");
  (match
     Explore.Sweep.run
       { (tiny_spec (fresh_dir ())) with Explore.Sweep.benchmarks = [ "nonesuch" ] }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown benchmark");
  (* Sweep directories from previous manifest formats (version 1 still named
     a candidate-selection policy) are refused, not converted. *)
  List.iter
    (fun (header, policy) ->
      let dir = fresh_dir () in
      Sys.mkdir dir 0o755;
      Circuit_io.Atomic_file.write (Filename.concat dir "manifest")
        (header ^ "\nbenchmarks ctrl\nladder er=0x1.47ae147ae147bp-7\n" ^ policy
       ^ "seed 1\neval_rounds 128\nmax_iters 3\ndistr unif\nend\n");
      match Explore.Sweep.run (tiny_spec dir) with
      | _ -> Alcotest.fail ("accepted an " ^ header ^ " manifest")
      | exception Failure msg ->
          check "names the old version" true (Util.contains msg header);
          check "asks for a re-run" true (Util.contains msg "re-run"))
    [ ("alsrac-explore 1", "policy greedy\n"); ("alsrac-explore 2", "") ]

(* ---------- Sweep: worst-case ladders and enumerated distributions ---------- *)

let maxed_spec dir =
  {
    (tiny_spec dir) with
    Explore.Sweep.benchmarks = [ "ctrl" ];
    ladders =
      [ { Explore.Ladder.metric = Errest.Metrics.Maxed; budgets = [ 1.0; 3.0; 7.0 ] } ];
    eval_rounds = 256;
  }

let test_sweep_maxed_shard_and_jobs_invariance () =
  (* The determinism contract must hold for a worst-case-error sweep too:
     fronts byte-identical across shard splits and pool sizes. *)
  let ref_dir = fresh_dir () in
  let p = run_spec (maxed_spec ref_dir) in
  check_int "three points" 3 p.Explore.Sweep.total;
  let reference = front_files ref_dir in
  check "maxed fronts written" true (reference <> []);
  let sharded = fresh_dir () in
  let _ = run_spec { (maxed_spec sharded) with Explore.Sweep.shards = 3; shard_id = 2 } in
  let _ = run_spec { (maxed_spec sharded) with Explore.Sweep.shards = 3; shard_id = 0 } in
  let _ = run_spec { (maxed_spec sharded) with Explore.Sweep.shards = 3; shard_id = 1 } in
  check "sharded maxed fronts byte-identical" true (front_files sharded = reference);
  let jobs2 = fresh_dir () in
  let _ = run_spec { (maxed_spec jobs2) with Explore.Sweep.jobs = 2 } in
  check "jobs=2 maxed fronts byte-identical" true (front_files jobs2 = reference)

(* 16 support rows over ctrl's 7 inputs, weights cycling 1..4. *)
let enum_distr_7pis =
  Errest.Distr.enum
    ~rows:(Array.init 16 (fun m -> Array.init 7 (fun i -> ((m * 37) lsr i) land 1 = 1)))
    ~weights:(Array.init 16 (fun m -> 1.0 +. float_of_int (m mod 4)))

let test_sweep_enum_distr_manifest () =
  let dir = fresh_dir () in
  let spec =
    { (tiny_spec dir) with Explore.Sweep.benchmarks = [ "ctrl" ]; distr = enum_distr_7pis }
  in
  let p = run_spec spec in
  check_int "all points ran" p.Explore.Sweep.total p.Explore.Sweep.ran;
  (* The distribution is part of the manifest and round-trips bit-exactly. *)
  (match Explore.Store.load_manifest dir with
  | Some m ->
      check "manifest distr round-trips" true
        (Errest.Distr.equal m.Explore.Store.distr enum_distr_7pis)
  | None -> Alcotest.fail "no manifest written");
  let fronts = front_files dir in
  (* Resume with a DIFFERENT command-line distribution: the stored manifest
     supersedes it — nothing re-runs, fronts stay byte-identical. *)
  let p2 = run_spec { spec with Explore.Sweep.distr = Errest.Distr.Unif } in
  check_int "nothing re-ran" 0 p2.Explore.Sweep.ran;
  check "fronts unchanged" true (front_files dir = fronts)

let test_sweep_enum_distr_rejects_width_mismatch () =
  match
    Explore.Sweep.run
      {
        (tiny_spec (fresh_dir ())) with
        Explore.Sweep.benchmarks = [ "ctrl"; "int2float" ];
        distr = enum_distr_7pis;
      }
  with
  | Error e ->
      check "names the offending benchmark" true
        (String.length e >= 9 && String.sub e 0 9 = "benchmark")
  | Ok _ -> Alcotest.fail "accepted an 11-PI benchmark under a 7-PI distribution"

(* ---------- CLI: SIGKILL mid-corpus, resume with different sharding ---------- *)

let alsrac_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/alsrac.exe"

let explore_argv dir ~benchmarks ~ladder ~shards ~shard_id =
  [| alsrac_exe; "explore"; "--dir"; dir; "--benchmarks"; benchmarks;
     "--ladder"; ladder; "--eval-rounds"; "512";
     "--max-iters"; "8"; "--shards"; string_of_int shards; "--shard-id";
     string_of_int shard_id; "--quiet" |]

let spawn_explore dir ~benchmarks ~ladder ~shards ~shard_id =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process alsrac_exe
      (explore_argv dir ~benchmarks ~ladder ~shards ~shard_id)
      null null null
  in
  Unix.close null;
  pid

let run_explore_blocking dir ~benchmarks ~ladder ~shards ~shard_id =
  let pid = spawn_explore dir ~benchmarks ~ladder ~shards ~shard_id in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "alsrac explore exited non-zero"

let is_completed_point name =
  (* Ignore [Atomic_file] temp files mid-rename: the kill must land after
     a point actually completed, not while one is being staged. *)
  String.length name >= 6
  && String.sub name 0 6 = "point-"
  && not (String.exists (fun c -> c = '.') name)

let wait_for_some_point dir ~timeout_s =
  let points = Filename.concat dir "points" in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let have =
      Sys.file_exists points
      && Array.exists is_completed_point (Sys.readdir points)
    in
    if have then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

let compare_front_files reference dir =
  List.iter2
    (fun (name_a, bytes_a) (name_b, bytes_b) ->
      check_str "front file name" name_a name_b;
      check_str (Printf.sprintf "front bytes of %s" name_a) bytes_a bytes_b)
    reference (front_files dir)

let test_cli_kill_and_resume_across_shards () =
  let benchmarks = "ctrl,int2float" and ladder = "er=0.005,0.01,0.02,0.05" in
  (* Uninterrupted reference sweep. *)
  let ref_dir = fresh_dir () in
  run_explore_blocking ref_dir ~benchmarks ~ladder ~shards:1 ~shard_id:0;
  let reference = front_files ref_dir in
  check "reference produced fronts" true (reference <> []);
  (* Kill a fresh sweep mid-corpus (as soon as the first point lands)... *)
  let dir = fresh_dir () in
  let pid = spawn_explore dir ~benchmarks ~ladder ~shards:1 ~shard_id:0 in
  let saw_point = wait_for_some_point dir ~timeout_s:60.0 in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  check "a point completed before the kill" true saw_point;
  let npoints dir = Array.length (Sys.readdir (Filename.concat dir "points")) in
  check "the kill interrupted the corpus" true (npoints dir < 8);
  (* ... and resume it under a different sharding: two processes, one per
     shard.  The completed set must converge and the final front files be
     byte-identical to the uninterrupted run's. *)
  run_explore_blocking dir ~benchmarks ~ladder ~shards:2 ~shard_id:0;
  run_explore_blocking dir ~benchmarks ~ladder ~shards:2 ~shard_id:1;
  check_int "all points completed after resume" 8 (npoints dir);
  compare_front_files reference dir

let test_cli_maxed_kill_and_resume () =
  (* The same SIGKILL discipline for a worst-case-error ladder: a killed
     max-ED sweep resumed under a different sharding converges to the
     uninterrupted run's fronts, byte for byte. *)
  let benchmarks = "ctrl" and ladder = "maxed=1,3,7" in
  let ref_dir = fresh_dir () in
  run_explore_blocking ref_dir ~benchmarks ~ladder ~shards:1 ~shard_id:0;
  let reference = front_files ref_dir in
  check "reference produced fronts" true (reference <> []);
  let dir = fresh_dir () in
  let pid = spawn_explore dir ~benchmarks ~ladder ~shards:1 ~shard_id:0 in
  let saw_point = wait_for_some_point dir ~timeout_s:60.0 in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  check "a point completed before the kill" true saw_point;
  run_explore_blocking dir ~benchmarks ~ladder ~shards:2 ~shard_id:0;
  run_explore_blocking dir ~benchmarks ~ladder ~shards:2 ~shard_id:1;
  check_int "all points completed after resume" 3
    (Array.length (Sys.readdir (Filename.concat dir "points")));
  compare_front_files reference dir

let () =
  Alcotest.run "explore"
    [
      ( "front",
        [
          Alcotest.test_case "basics" `Quick test_front_basics;
          Alcotest.test_case "tag tie-break" `Quick test_front_tag_tiebreak;
          Alcotest.test_case "serialization" `Quick test_front_serialization;
          Alcotest.test_case "antichain property" `Quick test_prop_antichain;
          Alcotest.test_case "no dominated survivor" `Quick
            test_prop_dominated_never_survives;
          Alcotest.test_case "merge = union front" `Quick test_prop_merge_equals_union;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "parse" `Quick test_ladder_parse;
          Alcotest.test_case "round-trip and rejects" `Quick
            test_ladder_roundtrip_and_rejects;
          Alcotest.test_case "worst-case budgets" `Quick test_ladder_max_budgets;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "smoke and resume" `Slow test_sweep_smoke_and_resume;
          Alcotest.test_case "shard and jobs invariance" `Slow
            test_sweep_shard_and_jobs_invariance;
          Alcotest.test_case "rejects" `Quick test_sweep_rejects;
          Alcotest.test_case "maxed shard and jobs invariance" `Slow
            test_sweep_maxed_shard_and_jobs_invariance;
          Alcotest.test_case "enum distr manifest" `Slow test_sweep_enum_distr_manifest;
          Alcotest.test_case "enum distr width mismatch" `Quick
            test_sweep_enum_distr_rejects_width_mismatch;
          Alcotest.test_case "CLI kill and resume" `Slow
            test_cli_kill_and_resume_across_shards;
          Alcotest.test_case "CLI maxed kill and resume" `Slow
            test_cli_maxed_kill_and_resume;
        ] );
    ]
