(* The repository benchmark: wall time of checked circuits, mapped area and
   held-out error on three workloads, each loading a different layer.

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] the product calls run untimed by anything but the
   benchmark's own clock and the end-to-end metrics are printed.  With
   [--trace 1] the per-layer metrics are printed instead: the benchmark
   replays iterations of the flow through the public entry points of each
   layer and puts spans around those calls (see README.md).  The last line
   of standard output is always one JSON object. *)

module G = Aig.Graph
module Flow = Core.Flow
module Config = Core.Config
module Rx = Core.Resub_exact
module Checker = Perfbench.Checker
module Trace = Perfbench.Trace

let now = Unix.gettimeofday

(* ---------- Workloads ---------- *)

type approx = { metric : Errest.Metrics.kind; threshold : float; eval_rounds : int }
type kind = Approx of approx | Exact
type circuit = { name : string; kind : kind }
type workload = { wname : string; circuits : circuit list }

let workloads =
  let er = Approx { metric = Errest.Metrics.Er; threshold = 0.01; eval_rounds = 4096 } in
  let wide metric = Approx { metric; threshold = 0.0019531; eval_rounds = 32768 } in
  [
    {
      wname = "control-er";
      circuits = List.map (fun name -> { name; kind = er }) [ "arbiter"; "c880"; "cavlc" ];
    };
    {
      wname = "arith-wide";
      circuits =
        [
          { name = "adder"; kind = wide Errest.Metrics.Mred };
          { name = "log2"; kind = wide Errest.Metrics.Mred };
          { name = "max"; kind = wide Errest.Metrics.Nmed };
        ];
    };
    {
      wname = "exact-opt";
      circuits = List.map (fun name -> { name; kind = Exact }) [ "priority"; "voter"; "square" ];
    };
  ]

(* A flow that runs past this wall-clock budget stops with [Timed_out],
   which counts as a failed circuit. *)
let flow_budget_s = 120.0
let setup_reps = 5

(* [Config.seed] of every flow and the seed of [Resub_exact]: the CLI
   default.  It is fixed because it picks the flow's whole trajectory
   (README.md, "Seeds"); [--seed] drives only the checker's patterns. *)
let flow_seed = 1

(* ---------- Options ---------- *)

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
}

(* Written circuits and traces, relative to the working directory. *)
let out_dir = "_perfbench"

let usage () =
  prerr_endline
    "usage: bench.exe --workload (control-er|arith-wide|exact-opt) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = List.assoc_opt k kv in
  let int k default =
    match get k with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match get "workload" with
    | Some w -> (
        match List.find_opt (fun x -> x.wname = w) workloads with
        | Some x -> x
        | None -> usage ())
    | None -> usage ()
  in
  let trace =
    match get "trace" with Some "0" | None -> false | Some "1" -> true | Some _ -> usage ()
  in
  { workload; seed = int "seed" None; seconds = float_of_int (int "seconds" (Some 25)); trace }

(* The checker's pattern seed: a function of [--seed] alone, unrelated to
   the flow's random stream. *)
let checker_seed seed = Checker.mix ((seed * 0x2545F491) + 0x5EED) land 0xFFFF_FFFF

(* ---------- Set-up ---------- *)

type prepared = {
  circuit : circuit;
  input : G.t;  (** the catalog's graph, handed to the product as the CLI does *)
  original : G.t;  (** its compacted form: the reference for ratios and checks *)
  gold : Checker.golden;
  in_luts : int;
  in_lut_depth : int;
}

let build_input name =
  match Circuits.Suite.find name with
  | Some e -> e.Circuits.Suite.build ()
  | None -> failwith ("unknown circuit " ^ name)

let setup ~seed c =
  let input = build_input c.name in
  let original = G.compact input in
  let ck = Checker.parse (Circuit_io.Aiger.graph_to_string original) in
  let gold =
    Checker.golden ck (Checker.source_for ~npis:ck.Checker.npis ~seed:(checker_seed seed))
  in
  let m = Techmap.Lutmap.run original in
  {
    circuit = c;
    input;
    original;
    gold;
    in_luts = Techmap.Mapped.num_cells m;
    in_lut_depth = Techmap.Mapped.depth m;
  }

(* ---------- Product calls ---------- *)

type outcome = {
  graph : G.t option;
  error : string option;  (** the call raised *)
  wall : float;
  report : Flow.report option;
  resub : Rx.stats option;
}

let flow_config ~jobs a =
  {
    (Config.default ~metric:a.metric ~threshold:a.threshold) with
    Config.seed = flow_seed;
    eval_rounds = a.eval_rounds;
    jobs;
    max_seconds = flow_budget_s;
  }

(* A span recorder: [Trace.with_span], or a no-op for untraced runs. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let traced = { span = Trace.with_span }

(* [opt --exact-resub] semantics: compress2 with the exact-resubstitution
   engine as its fourth pass. *)
let exact_opt ?pool ?(sp = untraced) g =
  let stats = ref Rx.zero_stats in
  let resub g =
    sp.span "core.resub_exact" (fun () ->
        let g', st = Rx.run ?pool ~config:{ Rx.default with Rx.seed = flow_seed } g in
        stats := Rx.add_stats !stats st;
        g')
  in
  let out = sp.span "aig.resyn.compress2" (fun () -> Aig.Resyn.compress2 ~resub g) in
  (out, !stats)

let run_product ?(jobs = 1) ?max_iters ?sp ?cancel c input =
  let t0 = now () in
  let result =
    try
      match c.kind with
      | Approx a ->
          let config = flow_config ~jobs a in
          let config =
            match max_iters with Some m -> { config with Config.max_iters = m } | None -> config
          in
          let g, r = Flow.run ?cancel ~config input in
          Ok (g, Some r, None)
      | Exact ->
          let g, st =
            if jobs > 1 then
              Parallel.Pool.with_pool ~jobs (fun pool -> exact_opt ~pool ?sp input)
            else exact_opt ?sp input
          in
          Ok (g, None, Some st)
    with e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  match result with
  | Ok (g, report, resub) -> { graph = Some g; error = None; wall; report; resub }
  | Error e -> { graph = None; error = Some e; wall; report = None; resub = None }

let stop_to_string = function
  | Flow.Budget_exhausted -> "budget"
  | Flow.Stalled -> "stalled"
  | Flow.Max_iters -> "max_iters"
  | Flow.Emptied -> "emptied"
  | Flow.Timed_out -> "timed_out"

(* Everything the program reports about a run that must repeat exactly:
   the output's AIGER digest and the program-made counters. *)
let fingerprint o =
  let digest =
    match o.graph with
    | Some g -> Digest.to_hex (Digest.string (Circuit_io.Aiger.graph_to_string g))
    | None -> "none"
  in
  let flow =
    match o.report with
    | None -> ""
    | Some r ->
        let s = r.Flow.scoring in
        Printf.sprintf
          " applied=%d final_rounds=%d guard_rejects=%d recovered=%d stop=%s \
           scored=%d trivial=%d early_exits=%d frontier=%d changed_pos=%d \
           changed_words=%d"
          r.Flow.applied r.Flow.final_rounds r.Flow.guard_rejects r.Flow.recovered_exns
          (stop_to_string r.Flow.stop_reason) s.Errest.Batch.scored s.Errest.Batch.trivial
          s.Errest.Batch.early_exits s.Errest.Batch.frontier_nodes s.Errest.Batch.changed_pos
          s.Errest.Batch.changed_words
  in
  let resub =
    match o.resub with
    | None -> ""
    | Some s ->
        Printf.sprintf
          " passes=%d targets=%d feasible=%d derived=%d accepted=%d sim_refuted=%d \
           undecided=%d refuted=%d scored=%d"
          s.Rx.passes s.Rx.targets s.Rx.feasible s.Rx.derived s.Rx.accepted s.Rx.sim_refuted
          s.Rx.cec_undecided s.Rx.cec_refuted s.Rx.batch.Errest.Batch.scored
  in
  digest ^ flow ^ resub

(* ---------- Checking ---------- *)

exception Abort of string

type row = {
  prep : prepared;
  out : outcome;
  digest : string;
  ands_out : int;
  luts_out : int;
  lut_depth_out : int;
  heldout : float;
  ratio : float;  (** held-out error / threshold; above 1 is a violation *)
  hard : string option;  (** the circuit failed outright *)
}

let violation r = r.ratio > 1.0
let passed r = r.hard = None && not (violation r)

let heldout_of (res : Checker.result) = function
  | Errest.Metrics.Er -> res.Checker.er
  | Errest.Metrics.Nmed -> res.Checker.nmed
  | Errest.Metrics.Mred -> res.Checker.mred
  | k -> invalid_arg ("no held-out measure for " ^ Errest.Metrics.kind_to_string k)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Fingerprints of an earlier run of the same executable, kept in the
   output directory, so that repeats are compared across runs too, even
   when each run makes a single pass.  Returns them (empty when there is no
   such run) and records the current ones in their place. *)
let earlier_fingerprints ~opts prints =
  let path = Filename.concat (Filename.concat out_dir opts.workload.wname) "fingerprints" in
  let key = Digest.to_hex (Digest.file Sys.executable_name) in
  let earlier =
    match String.split_on_char '\n' (read_file path) with
    | k :: earlier when k = key && List.length earlier = List.length prints -> earlier
    | _ -> []
    | exception Sys_error _ -> []
  in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (String.concat "\n" (key :: prints)));
  Sys.rename tmp path;
  earlier

(* [failure] is a reason found before checking for the circuit to fail,
   such as repeats that disagree. *)
let check ~opts ?(sp = untraced) ~failure prep out =
  let c = prep.circuit in
  let dir = Filename.concat out_dir opts.workload.wname in
  let fail_row msg =
    {
      prep; out; digest = "none"; ands_out = 0; luts_out = 0; lut_depth_out = 0;
      heldout = nan; ratio = nan; hard = Some msg;
    }
  in
  match (out.error, out.graph) with
  | Some e, _ -> fail_row ("exception: " ^ e)
  | None, None -> fail_row "no output"
  | None, Some g -> (
      let path = Filename.concat dir (c.name ^ ".aag") in
      Circuit_io.Aiger.write_graph path g;
      let text = read_file path in
      let digest = Digest.to_hex (Digest.string text) in
      let m = sp.span "techmap.lutmap" (fun () -> Techmap.Lutmap.run g) in
      let base =
        {
          prep; out; digest; ands_out = G.num_ands g;
          luts_out = Techmap.Mapped.num_cells m;
          lut_depth_out = Techmap.Mapped.depth m;
          heldout = nan; ratio = nan; hard = None;
        }
      in
      let with_hard msg = { base with hard = Some msg } in
      match Checker.parse text with
      | exception Failure msg -> with_hard ("unreadable output: " ^ msg)
      | ck -> (
          match Checker.compare prep.gold ck with
          | Error msg -> with_hard msg
          | Ok res -> (
              let heldout, ratio =
                match c.kind with
                | Approx a ->
                    let e = heldout_of res a.metric in
                    (e, e /. a.threshold)
                | Exact ->
                    if res.Checker.differing > 0 then
                      raise
                        (Abort
                           (Printf.sprintf
                              "%s: exact optimisation changed the function on %d of %d \
                               rounds"
                              c.name res.Checker.differing res.Checker.rounds));
                    (* A zero budget met with equality. *)
                    (0.0, 1.0)
              in
              let row = { base with heldout; ratio } in
              let timed_out =
                match out.report with
                | Some r -> r.Flow.stop_reason = Flow.Timed_out
                | None -> false
              in
              match Aig.Check.check g with
              | Error msg -> { row with hard = Some ("Aig.Check: " ^ msg) }
              | Ok () ->
                  if timed_out then { row with hard = Some "flow timed out" }
                  else { row with hard = failure })))

let sampled_error o = match o.report with Some r -> r.Flow.final_est_error | None -> 0.0

let print_row r =
  let c = r.prep.circuit in
  let ands_in = G.num_ands r.prep.original in
  let err =
    match c.kind with
    | Approx a ->
        Printf.sprintf "sampled %s %.6f%%, held-out %.6f%% (%d rounds), ratio %.4f"
          (Errest.Metrics.kind_to_string a.metric)
          (100.0 *. sampled_error r.out) (100.0 *. r.heldout)
          (Checker.rounds_of r.prep.gold.Checker.src) r.ratio
    | Exact ->
        Printf.sprintf "equivalent on %d rounds" (Checker.rounds_of r.prep.gold.Checker.src)
  in
  Printf.printf
    "# %-9s wall %8.3f s  ands %5d -> %5d  luts %4d -> %4d  depth %3d -> %3d  %s  %s%s\n"
    c.name r.out.wall ands_in r.ands_out r.prep.in_luts r.luts_out r.prep.in_lut_depth
    r.lut_depth_out err r.digest
    (match r.hard with
    | Some m -> "  FAILED: " ^ m
    | None -> if violation r then "  VIOLATION: held-out error over threshold" else "")

(* ---------- Statistics and output ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Prints the metrics, by name and with their units, then the result line.
   The names must be exactly the ones [Spec] (and so BENCHMARK.json)
   lists for this mode. *)
let emit ~spec ~correct ~attempted ~failed metrics =
  if List.map fst metrics <> List.map fst spec then
    failwith "perfbench: emitted metrics differ from Spec";
  let metrics = List.map (fun (name, v) -> (name, v, List.assoc name spec)) metrics in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %-34s %.6g %s\n" name v unit) metrics;
  let body =
    metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let ensure_dir d =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go d

let setup_all opts = List.map (setup ~seed:opts.seed) opts.workload.circuits

let timed_setups opts =
  let times = ref [] and last = ref [] in
  for _ = 1 to setup_reps do
    let t0 = now () in
    last := setup_all opts;
    times := (now () -. t0) :: !times
  done;
  (median !times, !last)

let summarize rows =
  let attempted = List.length rows in
  let failed = List.length (List.filter (fun r -> r.hard <> None) rows) in
  let ok = List.filter (fun r -> r.hard = None) rows in
  let ratio f = if ok = [] then nan else geomean (List.map f ok) in
  let fi = float_of_int in
  ( attempted,
    failed,
    [
      ("and_ratio", ratio (fun r -> fi r.ands_out /. fi (G.num_ands r.prep.original)));
      ("lut_ratio", ratio (fun r -> fi r.luts_out /. fi r.prep.in_luts));
      ("lut_depth_ratio", ratio (fun r -> fi r.lut_depth_out /. fi r.prep.in_lut_depth));
      ("heldout_error_ratio", List.fold_left (fun m r -> Float.max m r.ratio) 0.0 ok);
      ("pass_rate", fi (List.length (List.filter passed rows)) /. fi (max 1 attempted));
    ] )

(* ---------- Untraced run: end-to-end metrics ---------- *)

let run_untraced opts =
  let inputs = List.map (fun c -> (c, build_input c.name)) opts.workload.circuits in
  let t_start = now () in
  let passes = ref [] in
  let more () =
    match List.length !passes with
    | 0 -> true
    | n ->
        let el = now () -. t_start in
        el +. (el /. float_of_int n) <= opts.seconds
  in
  while more () do
    let outs = List.map (fun (c, g) -> run_product c g) inputs in
    passes := outs :: !passes
  done;
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let passes = List.rev !passes in
  let walls = List.map (fun outs -> List.fold_left (fun s o -> s +. o.wall) 0.0 outs) passes in
  let prints = List.map (List.map fingerprint) passes in
  let first = List.hd prints in
  let earlier = earlier_fingerprints ~opts first in
  let prints = prints @ [ earlier ] in
  let nondet i =
    List.exists (fun p -> p <> [] && List.nth p i <> List.nth first i) prints
  in
  let setup_s, preps = timed_setups opts in
  let last = List.nth passes (List.length passes - 1) in
  let rows =
    List.mapi
      (fun i (prep, out) ->
        let failure = if nondet i then Some "repeats disagree (digest or counters)" else None in
        check ~opts ~failure prep out)
      (List.combine preps last)
  in
  List.iter print_row rows;
  Printf.printf "# %d pass(es); pass walls: %s s; %s\n" (List.length passes)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
    (if earlier = [] then "no earlier run of this executable to compare"
     else "fingerprints compared with an earlier run");
  let attempted, failed, quality = summarize rows in
  let metrics =
    [ ("wall_s", median walls); ("setup_s", setup_s); ("peak_heap_mb", peak_mb) ]
    @ quality
  in
  (* Every pass ran every circuit; a circuit that failed counts once per
     pass. *)
  let npasses = List.length passes in
  emit ~spec:Perfbench.Spec.end_to_end ~correct:(failed = 0) ~attempted:(attempted * npasses)
    ~failed:(failed * npasses) metrics

(* ---------- Traced run: per-layer metrics ---------- *)

(* The flow polls its cancellation hook once per iteration, straight from
   its loop, and again at every pool chunk boundary.  Counting only the
   polls whose caller is the flow's own loop counts its iterations; the
   hook never cancels, so the run's result is untouched.  The caller is
   known by its frame name, so an executable without frame names counts 0,
   and [trace_approx] then fails the circuit. *)
let iteration_counter () =
  let n = Atomic.make 0 in
  let hook () =
    (match Printexc.backtrace_slots (Printexc.get_callstack 2) with
    | Some slots when Array.length slots = 2 -> (
        match Printexc.Slot.name slots.(1) with
        | Some name when String.starts_with ~prefix:"Core__Flow." name -> Atomic.incr n
        | _ -> ())
    | _ -> ());
    false
  in
  (n, hook)

(* Core.Flow's resynthesis and guard schedule under [Config.Compress2]
   ([optimize_step] and the final hand-off in lib/core/flow.ml).  Every
   candidate that reaches the guard, accepted or rejected, is resynthesised
   first: compress2 on every [flow_full_resyn_every]-th, the light sweep
   otherwise.  compress2 also runs once on the input and once on the final
   graph; when that last pass shrinks the graph, the hand-off is guarded
   with two error measurements, and one more measures the output.  The
   report's counters turn this schedule into call counts (a rejected
   hand-off counts as one rejected candidate); a change to the schedule in
   the flow must be made here too. *)
let flow_full_resyn_every = 10

type flow_calls = { light : float; compress2 : float; measures : float }

let flow_calls (r : Flow.report) =
  let steps = r.Flow.applied + r.Flow.guard_rejects in
  let full = steps / flow_full_resyn_every in
  let before_handoff =
    match List.rev r.Flow.events with e :: _ -> e.Flow.ands_after | [] -> r.Flow.output_ands
  in
  let handoff = if r.Flow.output_ands < before_handoff then 2 else 0 in
  let fi = float_of_int in
  { light = fi (steps - full); compress2 = fi (full + 2); measures = fi (steps + handoff + 1) }

type layer_acc = (string, float) Hashtbl.t

let add (acc : layer_acc) k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)

let get (acc : layer_acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.0

(* Evaluation patterns exactly as the flow draws them for a uniform
   distribution: exhaustive when they fit in the sample, else random. *)
let eval_patterns rng a npis =
  if npis <= Sim.Patterns.exhaustive_limit && 1 lsl npis <= a.eval_rounds then
    Sim.Patterns.exhaustive ~npis
  else Sim.Patterns.random rng ~npis ~len:a.eval_rounds

type replay_counts = {
  mutable replays : int;
  mutable lac_cands : int;
  mutable scored : int;
  mutable rebuilds : int;
  mutable accepts : int;
  mutable light_removed : int;
  mutable node_words : float;  (** simulated nodes x signature words *)
}

(* One flow iteration replayed through the layers' public calls with the
   flow's config, on a graph taken from the flow's own path.  [sp] is
   either [Trace.with_span] or a no-op, so the traced and untraced replays
   do identical work. *)
let replay ~sp ~config ~a ~original ~golden ~eval_pats ~rounds ~seed counts g =
  let words len = float_of_int ((len + Logic.Bitvec.word_bits - 1) / Logic.Bitvec.word_bits) in
  let sim name g pats =
    counts.node_words <-
      counts.node_words
      +. (float_of_int (G.num_nodes g) *. words (Logic.Bitvec.length pats.(0)));
    sp.span name (fun () -> Sim.Engine.simulate g pats)
  in
  let npis = G.num_pis g in
  let rng = Logic.Rng.create seed in
  counts.replays <- counts.replays + 1;
  sp.span "iteration" @@ fun () ->
  let care = Sim.Patterns.random rng ~npis ~len:rounds in
  let care_sigs = sim "sim.care" g care in
  let lacs = sp.span "core.lac" (fun () -> Core.Lac.generate g ~config ~sigs:care_sigs ~rounds) in
  counts.lac_cands <- counts.lac_cands + List.length lacs;
  if lacs <> [] then begin
    let base = sim "sim.eval" g eval_pats in
    let lac_arr = Array.of_list lacs in
    let batch =
      sp.span "errest.batch.create" (fun () ->
          Errest.Batch.create g ~metric:a.metric ~golden ~base)
    in
    let errs =
      sp.span "errest.batch" (fun () ->
          let specs =
            Array.map
              (fun (l : Core.Lac.t) ->
                let pos_sigs = Array.map (fun d -> base.(d)) l.Core.Lac.divisors in
                (l.Core.Lac.target, Logic.Cover.eval_sigs l.Core.Lac.cover ~pos_sigs))
              lac_arr
          in
          Errest.Batch.candidate_errors batch specs)
    in
    counts.scored <- counts.scored + Array.length lac_arr;
    let ranked =
      List.sort
        (fun (e1, (l1 : Core.Lac.t)) (e2, (l2 : Core.Lac.t)) ->
          let c = compare e1 e2 in
          if c <> 0 then c else compare l2.Core.Lac.gain l1.Core.Lac.gain)
        (Array.to_list (Array.mapi (fun i l -> (errs.(i), l)) lac_arr))
    in
    let budget = config.Config.threshold *. config.Config.margin in
    let depth_limit =
      int_of_float
        (ceil (config.Config.max_depth_growth *. float_of_int (max 1 (Aig.Topo.depth original))))
    in
    let rb = G.rebuilder () in
    let rec first = function
      | [] -> None
      | (e, _) :: _ when e > budget -> None
      | (_, (lac : Core.Lac.t)) :: rest ->
          counts.rebuilds <- counts.rebuilds + 1;
          let r =
            sp.span "aig.graph.rebuild" (fun () ->
                let repl = Core.Lac.replacement lac in
                let r =
                  G.rebuild_with rb
                    ~replace:(fun id -> if id = lac.Core.Lac.target then Some repl else None)
                    g
                in
                if G.num_ands r < G.num_ands g && Aig.Topo.depth r <= depth_limit then Some r
                else begin
                  G.recycle rb r;
                  None
                end)
          in
          if r = None then first rest else r
    in
    match first ranked with
    | None -> ()
    | Some replaced ->
        counts.accepts <- counts.accepts + 1;
        let light = sp.span "aig.resyn.light" (fun () -> Aig.Resyn.light replaced) in
        ignore (sp.span "aig.resyn.compress2" (fun () -> Aig.Resyn.compress2 replaced) : G.t);
        counts.light_removed <- counts.light_removed + (G.num_ands replaced - G.num_ands light);
        sp.span "errest.metrics" (fun () ->
            ignore (Aig.Check.check light : (unit, string) result);
            let approx = Sim.Engine.po_values light (sim "sim.guard" light eval_pats) in
            ignore (Errest.Metrics.measure a.metric ~golden ~approx : float))
  end

(* Graphs along the flow's path: [Flow.run] stopped by [max_iters] at these
   fractions of the full run's accepted LACs. *)
let path_points = [ 1.0 /. 6.0; 0.5; 5.0 /. 6.0 ]
let replays_per_point = 2

let events_prefix (full : Flow.report) (part : Flow.report) =
  let key (e : Flow.event) = (e.Flow.iteration, e.Flow.target, e.Flow.ands_after, e.Flow.rounds) in
  let n = List.length part.Flow.events in
  List.length full.Flow.events >= n
  && List.for_all2 (fun x y -> key x = key y) part.Flow.events
       (List.filteri (fun i _ -> i < n) full.Flow.events)

type replay_class = { counts : replay_counts; self : (string, float) Hashtbl.t }

let zero_counts () =
  { replays = 0; lac_cands = 0; scored = 0; rebuilds = 0; accepts = 0; light_removed = 0;
    node_words = 0.0 }

(* Replays of one class of iterations, each run untraced and then traced:
   the difference is the tracing overhead, and only the traced one counts. *)
let replay_class ~config ~a ~original ~golden ~eval_pats ~overhead ~tag graphs =
  let counts = zero_counts () in
  let since = Trace.mark () in
  List.iteri
    (fun pi (g, rounds) ->
      for j = 0 to replays_per_point - 1 do
        let seed = (flow_seed * 7919) + (tag * 1009) + (pi * 31) + j in
        let run sp counts =
          let t0 = now () in
          replay ~sp ~config ~a ~original ~golden ~eval_pats ~rounds ~seed counts g;
          now () -. t0
        in
        let u = run untraced (zero_counts ()) in
        let t = run traced counts in
        overhead := !overhead +. (t -. u)
      done)
    graphs;
  { counts; self = Trace.self_times ~since () }

let st cls name = Trace.self_time cls.self name
let per_replay cls name =
  if cls.counts.replays > 0 then st cls name /. float_of_int cls.counts.replays else 0.0

(* Per-layer estimates for one approximate circuit: per-call costs measured
   in the replays, times the real run's counts.  Iterations up to the last
   accepted LAC are modelled by graphs from along the path; the iterations
   after it (the flow shrinking its care set until it stops) by the final
   graph at the final round count.  Returns why the circuit fails, if it
   does. *)
let trace_approx ~acc ~overhead ~iterations a prep (real : outcome) (r : Flow.report) =
  let config = flow_config ~jobs:1 a in
  let original = prep.original in
  let nondet = ref false in
  let eval_pats =
    eval_patterns (Logic.Rng.create (flow_seed + 17)) a (G.num_pis original)
  in
  let t0 = now () in
  let golden = Sim.Engine.simulate_pos original eval_pats in
  let golden_s = now () -. t0 in
  let event_rounds k =
    match List.filteri (fun i _ -> i = k - 1) r.Flow.events with
    | e :: _ -> e.Flow.rounds
    | [] -> config.Config.sim_rounds
  in
  let path =
    List.filter_map
      (fun frac ->
        let k = int_of_float (frac *. float_of_int r.Flow.applied) in
        let part = run_product ~max_iters:k prep.circuit prep.input in
        match (part.graph, part.report) with
        | Some g, Some pr ->
            if not (events_prefix r pr) then nondet := true;
            Some (g, event_rounds k)
        | _ ->
            nondet := true;
            None)
      path_points
  in
  let replays = replay_class ~config ~a ~original ~golden ~eval_pats ~overhead in
  let path = replays ~tag:1 path in
  let tail =
    replays ~tag:2 (match real.graph with Some g -> [ (g, r.Flow.final_rounds) ] | None -> [])
  in
  let fi = float_of_int in
  let last_accept =
    List.fold_left (fun m (e : Flow.event) -> max m e.Flow.iteration) 0 r.Flow.events
  in
  (* The flow runs at least one iteration, and every accept is one. *)
  let bad_count = iterations < max 1 last_accept in
  if bad_count then
    Printf.printf "# WARNING %s: %d iterations counted, but LACs were accepted up to iteration %d\n"
      prep.circuit.name iterations last_accept;
  let iters = fi iterations and last_accept = fi last_accept in
  let tail_iters = Float.max 0.0 (iters -. last_accept) in
  let both f = (f path *. last_accept) +. (f tail *. tail_iters) in
  let pooled name count =
    let c = count path.counts + count tail.counts in
    if c > 0 then (st path name +. st tail name) /. fi c else 0.0
  in
  let per_accept name =
    if path.counts.accepts > 0 then st path name /. fi path.counts.accepts else 0.0
  in
  let applied = fi r.Flow.applied in
  let calls = flow_calls r in
  let scored_real = fi r.Flow.scoring.Errest.Batch.scored in
  (* Scoring cost per candidate differs between the classes (large graphs
     early, the small final graph in the tail): the classes' scoring time is
     scaled by the real run's candidate count over the one they predict. *)
  let scored_scale =
    let predicted =
      both (fun c ->
          if c.counts.replays > 0 then fi c.counts.scored /. fi c.counts.replays else 0.0)
    in
    if predicted > 0.0 then scored_real /. predicted else 0.0
  in
  let rebuilds_est =
    both (fun c ->
        if c.counts.replays > 0 then fi c.counts.rebuilds /. fi c.counts.replays else 0.0)
  in
  let est =
    [
      ("core.lac.s", both (fun c -> per_replay c "core.lac"));
      ( "sim.engine.s",
        both (fun c -> per_replay c "sim.care" +. per_replay c "sim.eval")
        +. golden_s
        +. (per_accept "sim.guard" *. calls.measures) );
      ( "errest.batch.s",
        both (fun c -> per_replay c "errest.batch.create")
        +. (both (fun c -> per_replay c "errest.batch") *. scored_scale) );
      ("aig.graph.rebuild_s", pooled "aig.graph.rebuild" (fun c -> c.rebuilds) *. rebuilds_est);
      ("aig.resyn.light_s", per_accept "aig.resyn.light" *. calls.light);
      ("aig.resyn.compress2_s", per_accept "aig.resyn.compress2" *. calls.compress2);
      ("errest.metrics.s", per_accept "errest.metrics" *. calls.measures);
    ]
  in
  List.iter (fun (k, v) -> add acc k v) est;
  let unattributed = real.wall -. List.fold_left (fun s (_, v) -> s +. v) 0.0 est in
  add acc "core.flow.unattributed_s" unattributed;
  Printf.printf "# %-9s %.3f s in %.0f iterations: %s, unattributed %.3f\n" prep.circuit.name
    real.wall iters
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.3f" k v) est))
    unattributed;
  add acc "core.lac.calls" iters;
  add acc "core.lac.candidates" scored_real;
  let sum f = fi (f path.counts + f tail.counts) in
  add acc "rate.lac.cands" (sum (fun c -> c.lac_cands));
  add acc "rate.lac.s" (st path "core.lac" +. st tail "core.lac");
  add acc "rate.batch.cands" (sum (fun c -> c.scored));
  add acc "rate.batch.s" (st path "errest.batch" +. st tail "errest.batch");
  add acc "sim.engine.calls" ((2.0 *. iters) +. 1.0 +. calls.measures);
  add acc "rate.sim.node_words" (path.counts.node_words +. tail.counts.node_words);
  add acc "rate.sim.s"
    (List.fold_left
       (fun s n -> s +. st path n +. st tail n)
       0.0 [ "sim.care"; "sim.eval"; "sim.guard" ]);
  add acc "aig.graph.rebuilds" rebuilds_est;
  (* The flow's initial optimisation, as it runs before the first
     iteration, plus the per-accept sweeps. *)
  let removed_at_start = G.num_ands original - G.num_ands (Aig.Resyn.compress2 original) in
  add acc "aig.resyn.ands_removed"
    (fi removed_at_start
    +.
    if path.counts.accepts > 0 then
      fi path.counts.light_removed /. fi path.counts.accepts *. applied
    else 0.0);
  if !nondet then Some "repeats disagree (max_iters prefix)"
  else if bad_count then Some "flow iteration count inconsistent with its events"
  else None

let trace_exact ~acc ~overhead prep (real : outcome) =
  let since = Trace.mark () in
  let traced =
    run_product ~sp:traced prep.circuit prep.input
  in
  let self = Trace.self_times ~since () in
  let rx = Trace.self_time self "core.resub_exact"
  and c2 = Trace.self_time self "aig.resyn.compress2" in
  add acc "core.resub_exact.s" rx;
  add acc "aig.resyn.compress2_s" c2;
  add acc "core.flow.unattributed_s" (real.wall -. rx -. c2);
  overhead := !overhead +. (traced.wall -. real.wall);
  (match real.graph with
  | Some g ->
      add acc "aig.resyn.ands_removed" (float_of_int (G.num_ands prep.original - G.num_ands g));
      let t0 = now () in
      let verdict = Trace.with_span "verify.cec" (fun () -> Verify.Cec.run prep.input g) in
      Printf.printf "# %-9s Verify.Cec: %s (%.3f s)\n" prep.circuit.name
        (Verify.Cec.verdict_to_string verdict) (now () -. t0);
      add acc "verify.cec.calls" 1.0;
      (match verdict with
      | Verify.Cec.Equivalent -> ()
      | Verify.Cec.Undecided _ -> add acc "verify.cec.undecided" 1.0
      | Verify.Cec.Inequivalent _ ->
          raise (Abort (prep.circuit.name ^ ": Verify.Cec refutes the exact optimisation")))
  | None -> ());
  fingerprint traced <> fingerprint real

let run_traced opts =
  let preps = setup_all opts in
  let acc : layer_acc = Hashtbl.create 64 in
  let overhead = ref 0.0 in
  let rows =
    List.map
      (fun prep ->
        let c = prep.circuit in
        let real = run_product c prep.input in
        (* Determinism: a [jobs = 2] run must reproduce the digest and every
           program-made counter of the [jobs = 1] run. *)
        let iterations, cancel = iteration_counter () in
        let par = run_product ~jobs:2 ~cancel c prep.input in
        let failure =
          ref
            (if fingerprint par <> fingerprint real then
               Some "repeats disagree (jobs 1 vs jobs 2)"
             else None)
        in
        let fail msg = if !failure = None then failure := Some msg in
        (match (c.kind, real.report) with
        | Approx a, Some r ->
            let iterations = Atomic.get iterations in
            Option.iter fail (trace_approx ~acc ~overhead ~iterations a prep real r);
            let s = r.Flow.scoring in
            add acc "errest.batch.scored" (float_of_int s.Errest.Batch.scored);
            add acc "batch.trivial" (float_of_int s.Errest.Batch.trivial);
            add acc "batch.early_exits" (float_of_int s.Errest.Batch.early_exits);
            add acc "errest.batch.frontier_nodes" (float_of_int s.Errest.Batch.frontier_nodes);
            add acc "errest.batch.changed_words" (float_of_int s.Errest.Batch.changed_words);
            add acc "core.flow.applied" (float_of_int r.Flow.applied);
            add acc "core.flow.final_rounds" (float_of_int r.Flow.final_rounds);
            add acc "core.flow.guard_rejects" (float_of_int r.Flow.guard_rejects)
        | Exact, _ ->
            if real.graph <> None && trace_exact ~acc ~overhead prep real then
              fail "repeats disagree (traced vs untraced)";
            Option.iter
              (fun (s : Rx.stats) ->
                List.iter
                  (fun (k, v) -> add acc k (float_of_int v))
                  [
                    ("core.resub_exact.targets", s.Rx.targets);
                    ("core.resub_exact.feasible", s.Rx.feasible);
                    ("core.resub_exact.derived", s.Rx.derived);
                    ("core.resub_exact.sim_refuted", s.Rx.sim_refuted);
                    ("core.resub_exact.accepted", s.Rx.accepted);
                    ("core.resub_exact.cec_undecided", s.Rx.cec_undecided);
                    ("core.resub_exact.cec_refuted", s.Rx.cec_refuted);
                    ("errest.batch.scored", s.Rx.batch.Errest.Batch.scored);
                    ("batch.trivial", s.Rx.batch.Errest.Batch.trivial);
                    ("batch.early_exits", s.Rx.batch.Errest.Batch.early_exits);
                    ("errest.batch.frontier_nodes", s.Rx.batch.Errest.Batch.frontier_nodes);
                    ("errest.batch.changed_words", s.Rx.batch.Errest.Batch.changed_words);
                  ])
              real.resub
        | Approx _, None -> ());
        check ~opts ~sp:traced ~failure:!failure prep real)
      preps
  in
  List.iter print_row rows;
  Trace.write (Filename.concat out_dir (opts.workload.wname ^ ".trace.json"));
  let g = get acc in
  let self = Trace.self_times () in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let metrics =
    [
      ("core.lac.s", g "core.lac.s");
      ("core.lac.calls", g "core.lac.calls");
      ("core.lac.candidates", g "core.lac.candidates");
      ("core.lac.candidates_per_s", ratio (g "rate.lac.cands") (g "rate.lac.s"));
      ("errest.batch.s", g "errest.batch.s");
      ("errest.batch.scored", g "errest.batch.scored");
      ("errest.batch.trivial_ratio", ratio (g "batch.trivial") (g "errest.batch.scored"));
      ( "errest.batch.early_exit_ratio",
        ratio (g "batch.early_exits") (g "errest.batch.scored" -. g "batch.trivial"));
      ("errest.batch.frontier_nodes", g "errest.batch.frontier_nodes");
      ("errest.batch.changed_words", g "errest.batch.changed_words");
      ("errest.batch.candidates_per_s", ratio (g "rate.batch.cands") (g "rate.batch.s"));
      ("sim.engine.s", g "sim.engine.s");
      ("sim.engine.calls", g "sim.engine.calls");
      ("sim.engine.node_words_per_s", ratio (g "rate.sim.node_words") (g "rate.sim.s"));
      ("errest.metrics.s", g "errest.metrics.s");
      ("aig.graph.rebuild_s", g "aig.graph.rebuild_s");
      ("aig.graph.rebuilds", g "aig.graph.rebuilds");
      ("aig.graph.rebuilds_per_accept", ratio (g "aig.graph.rebuilds") (g "core.flow.applied"));
      ("core.resub_exact.s", g "core.resub_exact.s");
      ("core.resub_exact.targets", g "core.resub_exact.targets");
      ("core.resub_exact.feasible", g "core.resub_exact.feasible");
      ("core.resub_exact.derived", g "core.resub_exact.derived");
      ("core.resub_exact.sim_refuted", g "core.resub_exact.sim_refuted");
      ("core.resub_exact.accepted", g "core.resub_exact.accepted");
      ( "core.resub_exact.accept_ratio",
        ratio (g "core.resub_exact.accepted") (g "core.resub_exact.derived"));
      ("core.resub_exact.cec_undecided", g "core.resub_exact.cec_undecided");
      ("core.resub_exact.cec_refuted", g "core.resub_exact.cec_refuted");
      ("verify.cec.s", Trace.self_time self "verify.cec");
      ("verify.cec.calls", g "verify.cec.calls");
      ("verify.cec.undecided", g "verify.cec.undecided");
      ("aig.resyn.light_s", g "aig.resyn.light_s");
      ("aig.resyn.compress2_s", g "aig.resyn.compress2_s");
      ("aig.resyn.ands_removed", g "aig.resyn.ands_removed");
      ("techmap.lutmap.s", Trace.self_time self "techmap.lutmap");
      ("core.flow.applied", g "core.flow.applied");
      ("core.flow.final_rounds", g "core.flow.final_rounds");
      ("core.flow.guard_rejects", g "core.flow.guard_rejects");
      ( "core.flow.accepts_per_kcand",
        1000.0 *. ratio (g "core.flow.applied") (g "core.lac.candidates"));
      ("core.flow.unattributed_s", g "core.flow.unattributed_s");
      ("trace.overhead_s", !overhead);
    ]
  in
  let attempted, failed, _ = summarize rows in
  emit ~spec:Perfbench.Spec.per_layer ~correct:(failed = 0) ~attempted ~failed metrics

let () =
  if List.map (fun w -> w.wname) workloads <> Perfbench.Spec.workloads then
    failwith "perfbench: workloads differ from Spec";
  let opts = parse_args () in
  ensure_dir (Filename.concat out_dir opts.workload.wname);
  match if opts.trace then run_traced opts else run_untraced opts with
  | () -> ()
  | exception Abort msg ->
      Printf.eprintf "perfbench: ABORT: %s\n" msg;
      exit 3
