type spec = {
  dir : string;
  benchmarks : string list;
  ladders : Ladder.t list;
  seed : int;
  eval_rounds : int;
  max_iters : int;
  shards : int;
  shard_id : int;
  jobs : int;
  distr : Errest.Distr.t;
}

type item = {
  index : int;
  bench : string;
  metric : Errest.Metrics.kind;
  budget : float;
}

let work_list (m : Store.manifest) =
  let items = ref [] in
  let index = ref 0 in
  List.iter
    (fun (l : Ladder.t) ->
      List.iter
        (fun bench ->
          List.iter
            (fun budget ->
              items := { index = !index; bench; metric = l.metric; budget } :: !items;
              incr index)
            l.budgets)
        m.benchmarks)
    m.ladders;
  Array.of_list (List.rev !items)

type progress = {
  manifest : Store.manifest;
  total : int;
  already_done : int;
  owned : int;
  ran : int;
}

let ( let* ) = Result.bind

let validate_benchmarks names =
  match names with
  | [] -> Error "no benchmarks selected"
  | _ -> (
      match List.find_opt (fun n -> Circuits.Suite.find n = None) names with
      | Some n ->
          Error (Printf.sprintf "unknown benchmark %s (try `alsrac list')" n)
      | None -> Ok ())

(* One point = one complete flow plus both technology mappings.  Pure in
   (manifest, index): sequential flow (jobs = 1), per-point seed,
   unbounded wall clock — nothing here may observe the execution
   layout. *)
let run_point (m : Store.manifest) (it : item) =
  let entry = Option.get (Circuits.Suite.find it.bench) in
  let g = Aig.Graph.compact (entry.Circuits.Suite.build ()) in
  let config =
    {
      (Core.Config.default ~metric:it.metric ~threshold:it.budget) with
      Core.Config.seed = m.seed + it.index;
      eval_rounds = m.eval_rounds;
      max_iters = m.max_iters;
      distr = m.distr;
      jobs = 1;
    }
  in
  let approx, report = Core.Flow.run ~config g in
  let l0 = Techmap.Lutmap.run g and l1 = Techmap.Lutmap.run approx in
  let c0 = Techmap.Cellmap.run g and c1 = Techmap.Cellmap.run approx in
  {
    Store.index = it.index;
    bench = it.bench;
    metric = it.metric;
    budget = it.budget;
    est_error = report.Core.Flow.final_est_error;
    orig_ands = Aig.Graph.num_ands g;
    ands = Aig.Graph.num_ands approx;
    orig_luts = Techmap.Mapped.num_cells l0;
    luts = Techmap.Mapped.num_cells l1;
    orig_lut_depth = Techmap.Mapped.depth l0;
    lut_depth = Techmap.Mapped.depth l1;
    orig_area = Techmap.Mapped.area c0;
    area = Techmap.Mapped.area c1;
    orig_delay = Techmap.Mapped.delay c0;
    delay = Techmap.Mapped.delay c1;
    applied = report.Core.Flow.applied;
    scored = report.Core.Flow.scoring.Errest.Batch.scored;
    runtime_s = report.Core.Flow.runtime_s;
  }

let run ?(log = fun _ -> ()) spec =
  let* () = Shard.validate ~shards:spec.shards ~shard_id:spec.shard_id in
  let* () = validate_benchmarks spec.benchmarks in
  let* () =
    if spec.eval_rounds <= 0 then Error "eval-rounds must be positive"
    else if spec.max_iters < 0 then Error "max-iters must be >= 0"
    else if spec.jobs < 0 then Error "jobs must be >= 0"
    else Ok ()
  in
  let m =
    Store.init ~dir:spec.dir
      {
        Store.benchmarks = spec.benchmarks;
        ladders = spec.ladders;
        seed = spec.seed;
        eval_rounds = spec.eval_rounds;
        max_iters = spec.max_iters;
        distr = spec.distr;
      }
  in
  (* The persisted manifest supersedes the command line (it may come
     from an interrupted run with different flags) — so its benchmark
     names must be re-validated, not trusted. *)
  let* () = validate_benchmarks m.Store.benchmarks in
  (* An enumerated distribution fixes a PI count; every benchmark of the
     (possibly resumed) manifest must match it, or run_point would raise
     mid-sweep. *)
  let* () =
    let rec check = function
      | [] -> Ok ()
      | bench :: rest -> (
          let entry = Option.get (Circuits.Suite.find bench) in
          let npis = Aig.Graph.num_pis (entry.Circuits.Suite.build ()) in
          match Errest.Distr.validate_npis m.Store.distr ~npis with
          | Ok () -> check rest
          | Error e -> Error (Printf.sprintf "benchmark %s: %s" bench e))
    in
    check m.Store.benchmarks
  in
  if
    m.Store.benchmarks <> spec.benchmarks
    || m.Store.ladders <> spec.ladders
    || not (Errest.Distr.equal m.Store.distr spec.distr)
  then log "resuming: existing manifest supersedes the command line";
  let items = work_list m in
  let total = Array.length items in
  let done0 = Store.completed ~dir:spec.dir ~total in
  let already_done = Array.fold_left (fun n r -> if r <> None then n + 1 else n) 0 done0 in
  let pending =
    Array.of_list
      (List.filter
         (fun it ->
           Shard.owns ~shards:spec.shards ~shard_id:spec.shard_id it.index
           && done0.(it.index) = None)
         (Array.to_list items))
  in
  let owned =
    Array.fold_left
      (fun n it ->
        if Shard.owns ~shards:spec.shards ~shard_id:spec.shard_id it.index then n + 1
        else n)
      0 items
  in
  let disk = Mutex.create () in
  let publish result =
    (* Atomic point write, then fronts rebuilt from the full completed
       set (other shards' fresh points included) — the fronts on disk
       are anytime-consistent after every flow. *)
    Mutex.lock disk;
    Fun.protect ~finally:(fun () -> Mutex.unlock disk) @@ fun () ->
    Store.record_point ~dir:spec.dir result;
    let all = Store.completed ~dir:spec.dir ~total in
    let results = List.filter_map Fun.id (Array.to_list all) in
    Store.write_fronts ~dir:spec.dir m results
  in
  let npending = Array.length pending in
  if npending > 0 then
    Parallel.Pool.with_pool ~jobs:spec.jobs (fun pool ->
        ignore
          (Parallel.Chunk.map ~pool ~chunk_size:1 ~n:npending (fun i ->
               let it = pending.(i) in
               let r = run_point m it in
               publish r;
               log
                 (Printf.sprintf "point %d/%d %s %s budget %g: ands %d -> %d (%d LACs)"
                    (it.index + 1) total it.bench
                    (Errest.Metrics.kind_to_string it.metric)
                    it.budget r.Store.orig_ands r.Store.ands r.Store.applied))));
  (* Refresh fronts even when nothing ran: a resume onto a completed
     directory must still leave consistent front files behind. *)
  let all = Store.completed ~dir:spec.dir ~total in
  let results = List.filter_map Fun.id (Array.to_list all) in
  Store.write_fronts ~dir:spec.dir m results;
  Ok { manifest = m; total; already_done; owned; ran = npending }
