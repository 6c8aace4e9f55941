module Graph = Aig.Graph
module Bitvec = Logic.Bitvec

type event = Journal.event = {
  iteration : int;
  target : int;
  est_error : float;
  ands_after : int;
  rounds : int;
}

type stop_reason = Budget_exhausted | Stalled | Max_iters | Emptied | Timed_out

exception Cancelled

type certify = {
  exact_checks : int;
  exact_confirmed : int;
  exact_undecided : int;
  exact_refuted : int;
  lac_rechecks : int;
  lac_recheck_failures : int;
  lac_max_deviation : float;
}

type bound_family = Hoeffding | Exhaustive | Max_miter

type certificate = { upper : float; family : bound_family }

let family_to_string = function
  | Hoeffding -> "hoeffding"
  | Exhaustive -> "exhaustive"
  | Max_miter -> "max-miter"

type report = {
  input_ands : int;
  output_ands : int;
  applied : int;
  final_est_error : float;
  certified : certificate option;
  final_rounds : int;
  runtime_s : float;
  wall_s : float;
  stop_reason : stop_reason;
  guard_rejects : int;
  recovered_exns : int;
  quarantined : int;
  resumed : bool;
  pool : Parallel.Pool.stat array;
  scoring : Errest.Batch.stats;
  resub : Resub_exact.stats option;
  events : event list;
  certify : certify option;
}

let log_src = Logs.Src.create "alsrac.flow" ~doc:"ALSRAC flow progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Pattern generation honouring the configured input distribution: under an
   enumerated distribution, care patterns are support rows sampled by
   weight; under the uniform one, [input_probs] may bias the care set. *)
let gen_patterns rng (config : Config.t) ~npis ~len =
  match config.distr with
  | Errest.Distr.Enum _ as d -> Errest.Distr.sample d rng ~npis ~len
  | Errest.Distr.Unif -> (
      match config.input_probs with
      | None -> Sim.Patterns.random rng ~npis ~len
      | Some probs -> Sim.Patterns.weighted rng ~probs ~len)

(* The evaluation sample and its per-round weights.  Uniform: exhaustive
   when [exhaustive], Monte-Carlo otherwise.  Enumerated distributions are
   evaluated EXACTLY: one round per support row, terms weighted by the row's
   probability — no Monte-Carlo error at all. *)
let eval_set rng (config : Config.t) ~npis ~exhaustive =
  match config.distr with
  | Errest.Distr.Unif ->
      ( (if exhaustive then Sim.Patterns.exhaustive ~npis
         else gen_patterns rng config ~npis ~len:config.eval_rounds),
        None )
  | Errest.Distr.Enum _ as d ->
      (Errest.Distr.signatures d, Errest.Distr.round_weights d)

(* Quarantine key of a node: a hash of its evaluation signature.  The eval
   pattern set is fixed for the whole run, so the key survives the node-id
   renumbering of rebuild/compact — a misbehaving target stays quarantined
   even after the graph around it changes. *)
let sig_hash v =
  Array.fold_left
    (fun h w -> ((h * 1000003) lxor w) land max_int)
    (Bitvec.length v) (Bitvec.unsafe_words v)

(* Exceptions the per-iteration recovery wrapper must never swallow.
   Cancellation is in this set: a caller that asked the flow to stop must
   get control back, not watch the loop retry with fresh patterns. *)
let fatal = function
  | Fault.Killed | Cancelled | Parallel.Pool.Cancelled | Stack_overflow
  | Out_of_memory | Sys.Break ->
      true
  | _ -> false

let max_recovered_exns = 50

(* Floor of the care-simulation round count [N] when shrinking. *)
let min_rounds = 4

(* Absolute slack allowed between a candidate's predicted error and its
   re-measured error before the guard trips: the transforms between them
   are exact, so this only absorbs float-summation noise. *)
let guard_tol = 1e-9

(* Confidence of the Hoeffding-certified upper bound on the final error. *)
let confidence = 0.999

(* ---------- Loop state ----------

   Everything the phases of one run share.  The run's fixed context comes
   first.  [st] is the journaled part: restored verbatim on resume, updated
   in place by the phases, checkpointed verbatim after every accepted LAC.
   The mutable fields after it are per-process observations — like fault
   plans they are not journaled, so a resumed run's counters cover the
   resumed portion only. *)

type loop = {
  config : Config.t;
  pool : Parallel.Pool.t;
  journal : Journal.t option;
  original : Graph.t;
  npis : int;
  exhaustive : bool;
      (* uniform evaluation enumerates the whole input space, which makes the
         sampled error the exact one *)
  eval_pats : Bitvec.t array;
  eval_weights : float array option;
  golden : Bitvec.t array;  (* PO signatures of [original] on [eval_pats] *)
  depth_limit : int;
  (* Candidate-rebuild arena: [try_candidate] materializes one rebuilt graph
     per tried candidate and throws most of them away at the cheap size
     check, so the mapping scratch and the rejected graph's arrays are
     recycled instead of re-allocated (steady state: zero allocation per
     rejected candidate beyond what the strash folding itself demands). *)
  rb : Graph.rebuilder;
  st : Journal.state;
  mutable g : Graph.t;  (* the last good graph *)
  mutable stop : stop_reason option;  (* set when the loop must end *)
  mutable scoring : Errest.Batch.stats;
  mutable resub_stats : Resub_exact.stats;
  mutable certify : certify;
}

let no_certify =
  {
    exact_checks = 0;
    exact_confirmed = 0;
    exact_undecided = 0;
    exact_refuted = 0;
    lac_rechecks = 0;
    lac_recheck_failures = 0;
    lac_max_deviation = 0.0;
  }

let setup ~(config : Config.t) ~pool ~journal ~original ~init g_start =
  let npis = Graph.num_pis original in
  (match Errest.Distr.validate_npis config.distr ~npis with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Flow: " ^ msg));
  (* NaN compares false against every candidate error, so a NaN budget
     would accept every LAC until the circuit is gone. *)
  if not (config.threshold >= 0.0) then
    invalid_arg "Flow: the threshold must be a non-negative number";
  let rng0 = Logic.Rng.create config.seed in
  let exhaustive =
    config.input_probs = None
    && Sim.Patterns.exhaustive_fits ~npis ~rounds:config.eval_rounds
  in
  let eval_pats, eval_weights = eval_set (Logic.Rng.split rng0) config ~npis ~exhaustive in
  let golden = Sim.Engine.simulate_pos ~pool original eval_pats in
  let depth_limit =
    if config.max_depth_growth = infinity then max_int
    else
      int_of_float
        (ceil (config.max_depth_growth *. float_of_int (max 1 (Aig.Topo.depth original))))
  in
  {
    config;
    pool;
    journal;
    original;
    npis;
    exhaustive;
    eval_pats;
    eval_weights;
    golden;
    depth_limit;
    rb = Graph.rebuilder ();
    (* On resume the journal's state — RNG stream position included —
       supersedes the fresh one: pattern generation continues exactly where
       the interrupted run left off. *)
    st =
      (match init with
      | Some s -> s
      | None -> Journal.fresh ~rng:rng0 ~rounds:config.sim_rounds);
    g = g_start;
    stop = None;
    scoring = Errest.Batch.zero_stats;
    resub_stats = Resub_exact.zero_stats;
    certify = no_certify;
  }

let eval_len l =
  if Array.length l.eval_pats > 0 then Bitvec.length l.eval_pats.(0)
  else l.config.eval_rounds

let measure_error l g' =
  Errest.Metrics.measure ?weights:l.eval_weights l.config.metric ~golden:l.golden
    ~approx:(Sim.Engine.simulate_pos ~pool:l.pool g' l.eval_pats)

(* ---------- Exact transforms: resynthesis, certification, guard ---------- *)

(* Miter-check one exact-transform application ([Config.certify_exact]).
   Bounded effort: verdicts the portfolio cannot decide are counted, not
   guessed.  The check is sequential and draws no randomness from the run's
   stream, so it cannot perturb the flow's results at any [jobs] setting. *)
let certify_exact_step l what before after =
  if l.config.certify_exact then begin
    let c = { l.certify with exact_checks = l.certify.exact_checks + 1 } in
    l.certify <-
      (match
         Verify.Cec.run ~seed:(l.config.seed + 0x5EED) ~rounds:512
           ~effort:Verify.Cec.Fast before after
       with
      | Verify.Cec.Equivalent -> { c with exact_confirmed = c.exact_confirmed + 1 }
      | Verify.Cec.Undecided msg ->
          Log.debug (fun m -> m "certify: %s left undecided (%s)" what msg);
          { c with exact_undecided = c.exact_undecided + 1 }
      | Verify.Cec.Inequivalent cex ->
          Log.err (fun m ->
              m "certify: exact transform %s is NOT function-preserving (PO %d)" what
                cex.Verify.Cec.po);
          { c with exact_refuted = c.exact_refuted + 1 })
  end

(* Exact-resubstitution pass ([Config.exact_resub]): threaded into every
   [Compress2] invocation as [Aig.Resyn]'s fourth pass.  Exact and
   self-certifying (every commit is CEC-proven inside [Resub_exact]), so
   the guard's "error is bit-for-bit unchanged" contract still holds.
   Deterministic in the config seed alone — a resumed run re-derives the
   same passes, keeping resume byte-identity. *)
let resub_pass l =
  if l.config.exact_resub then
    Some
      (fun g ->
        let g', st =
          Resub_exact.run ~pool:l.pool
            ~config:{ Resub_exact.default with Resub_exact.seed = l.config.seed }
            g
        in
        l.resub_stats <- Resub_exact.add_stats l.resub_stats st;
        g')
  else None

(* Algorithm 3 line 9.  The [initial] pass runs the configured level in
   full.  After that, under Compress2, the full pipeline runs on every tenth
   candidate that reaches resynthesis, and the cheap sweep+balance on the
   others; the final hand-off ([hand_off]) runs it once more.  This keeps
   the large arithmetic circuits tractable without giving up the final
   quality. *)
let optimize l ~initial g =
  let optimized =
    match l.config.resyn with
    | Config.No_resyn -> Graph.compact g
    | Config.Light -> Aig.Resyn.light g
    | Config.Compress2 when initial -> Aig.Resyn.compress2 ?resub:(resub_pass l) g
    | Config.Compress2 ->
        l.st.accepts_since_full <- l.st.accepts_since_full + 1;
        if l.st.accepts_since_full >= 10 then begin
          l.st.accepts_since_full <- 0;
          Aig.Resyn.compress2 ?resub:(resub_pass l) g
        end
        else Aig.Resyn.light g
  in
  certify_exact_step l (if initial then "initial resyn" else "inter-iteration resyn") g
    optimized;
  optimized

(* The guard: a candidate graph is kept only if it passes the structural
   invariants AND a signature-consistency probe — every transform between
   prediction and commit is exact, so the re-measured error must agree with
   the predicted one (within float-summation noise).  Returns the
   violation, if any. *)
let guard_violation l g' ~predicted =
  if not l.config.guard then None
  else if
    Graph.num_pis g' <> l.npis || Graph.num_pos g' <> Graph.num_pos l.original
  then Some "PI/PO interface changed"
  else
    match Aig.Check.check g' with
    | Error msg -> Some msg
    | Ok () ->
        let measured = measure_error l g' in
        if Float.abs (measured -. predicted) > guard_tol then
          Some
            (Printf.sprintf "signature probe: measured %.9g vs predicted %.9g" measured
               predicted)
        else None

(* ---------- Phases of one iteration ---------- *)

(* Sample: fresh care patterns, [N] rounds of them, simulated on the current
   graph (Algorithm 3 line 3).  The run's only draw from its RNG stream. *)
let sample l =
  let care_pats = gen_patterns l.st.rng l.config ~npis:l.npis ~len:l.st.rounds in
  Sim.Engine.simulate ~pool:l.pool l.g care_pats

(* Generate: LAC candidates from the approximate care set (Algorithm 2). *)
let generate l care_sigs =
  Lac.generate ~pool:l.pool l.g ~config:l.config ~sigs:care_sigs ~rounds:l.st.rounds

(* Score and rank: every candidate's error against the ORIGINAL circuit on
   the evaluation sample, best first.  Returns the current graph's
   evaluation signatures along with the ranking. *)
let score l lacs =
  let base_sigs = Sim.Engine.simulate ~pool:l.pool l.g l.eval_pats in
  (match Fault.flip_signatures l.config.fault ~iteration:l.st.iteration with
  | Some bit ->
      (* Soft-error model: skew every node's evaluation signature, so the
         error predictions below no longer describe the real graph. *)
      Array.iter
        (fun s ->
          let len = Bitvec.length s in
          if len > 0 then begin
            let b = bit mod len in
            Bitvec.set s b (not (Bitvec.get s b))
          end)
        base_sigs
  | None -> ());
  (* Quarantined targets are dead to the run: a LAC on them already broke
     the guard once. *)
  let lac_arr =
    List.filter
      (fun (lac : Lac.t) ->
        not (List.mem (sig_hash base_sigs.(lac.Lac.target)) l.st.quarantined))
      lacs
    |> Array.of_list
  in
  let batch =
    Errest.Batch.create ?weights:l.eval_weights l.g ~metric:l.config.metric
      ~golden:l.golden ~base:base_sigs
  in
  (* Candidate scoring is the hottest loop of a flow iteration: fan it
     across the pool.  [candidate_errors] is bit-identical to the sequential
     scoring at any pool size, so the ranking below — and with it the whole
     run — is too. *)
  let specs =
    Array.map
      (fun (lac : Lac.t) ->
        let pos_sigs = Array.map (fun d -> base_sigs.(d)) lac.Lac.divisors in
        (lac.Lac.target, Logic.Cover.eval_sigs lac.Lac.cover ~pos_sigs))
      lac_arr
  in
  let errs = Errest.Batch.candidate_errors ~pool:l.pool batch specs in
  l.scoring <- Errest.Batch.add_stats l.scoring (Errest.Batch.stats batch);
  (* Best LAC = smallest induced error, ties broken by estimated gain
     (Algorithm 3 line 6). *)
  let ranked =
    List.sort
      (fun (e1, (l1 : Lac.t)) (e2, (l2 : Lac.t)) ->
        let c = compare e1 e2 in
        if c <> 0 then c else compare l2.Lac.gain l1.Lac.gain)
      (Array.to_list (Array.mapi (fun i lac -> (errs.(i), lac)) lac_arr))
  in
  (base_sigs, ranked)

(* Independent cross-check of an accepted LAC ([Config.certify_exact]): its
   predicted error must re-measure consistently on a pattern set the flow
   never saw.  The recheck RNG is derived from (seed, iteration), never from
   the run's stream, so journaled resumes are unaffected. *)
let recheck l ~err (lac : Lac.t) optimized =
  let config = l.config in
  let pats, weights =
    match config.distr with
    | Errest.Distr.Enum _ ->
        (* The exact support measurement itself: any deviation beyond
           float-summation noise is a failure. *)
        (l.eval_pats, l.eval_weights)
    | Errest.Distr.Unif ->
        let rng = Logic.Rng.create ((config.seed * 1_000_003) + l.st.iteration) in
        (gen_patterns rng config ~npis:l.npis ~len:(max 64 config.eval_rounds), None)
  in
  let e2 =
    Errest.Metrics.compare_graphs ?weights config.metric ~original:l.original
      ~approx:optimized pats
  in
  let dev = Float.abs (e2 -. err) in
  let tolerance =
    match config.distr with
    | Errest.Distr.Enum _ -> Some guard_tol
    | Errest.Distr.Unif when Errest.Metrics.bounded_mean config.metric ->
        (* Both estimates concentrate around the true error; their gap is
           bounded by the sum of the two one-sided Hoeffding margins. *)
        Some
          (Errest.Certify.hoeffding_margin ~samples:(eval_len l) ~confidence:0.9999
          +. Errest.Certify.hoeffding_margin ~samples:(max 64 config.eval_rounds)
               ~confidence:0.9999)
    | Errest.Distr.Unif ->
        (* Unbounded means and max metrics admit no such two-sample
           tolerance: deviations are recorded in [lac_max_deviation], not
           judged. *)
        None
  in
  let failed =
    match tolerance with
    | Some tol when dev > tol ->
        Log.err (fun m ->
            m "certify: LAC on node %d re-simulates at %.6g vs predicted %.6g (tolerance %.3g)"
              lac.Lac.target e2 err tol);
        1
    | Some _ | None -> 0
  in
  let c = l.certify in
  l.certify <-
    {
      c with
      lac_rechecks = c.lac_rechecks + 1;
      lac_recheck_failures = c.lac_recheck_failures + failed;
      lac_max_deviation = (if dev > c.lac_max_deviation then dev else c.lac_max_deviation);
    }

(* Commit: the candidate becomes the last good graph. *)
let commit l ~err (lac : Lac.t) optimized =
  l.g <- optimized;
  l.st.applied <- l.st.applied + 1;
  if l.config.certify_exact && l.npis > 0 then recheck l ~err lac optimized;
  l.st.events <-
    {
      iteration = l.st.iteration;
      target = lac.Lac.target;
      est_error = err;
      ands_after = Graph.num_ands l.g;
      rounds = l.st.rounds;
    }
    :: l.st.events;
  Log.debug (fun m ->
      m "iter %d: applied LAC on node %d, err %.5f, ands %d" l.st.iteration lac.Lac.target
        err (Graph.num_ands l.g))

(* Roll back (the candidate graph is simply dropped) and quarantine the
   target for the rest of the run. *)
let quarantine l ~base_sigs (lac : Lac.t) violation =
  l.st.guard_rejects <- l.st.guard_rejects + 1;
  let h = sig_hash base_sigs.(lac.Lac.target) in
  if not (List.mem h l.st.quarantined) then
    l.st.quarantined <- List.sort compare (h :: l.st.quarantined);
  Log.warn (fun m ->
      m "iter %d: guard rejected LAC on node %d (%s); rolled back" l.st.iteration
        lac.Lac.target violation)

(* Try one candidate: rebuild, resynthesize, guard, recheck, commit.
   Returns whether it was committed. *)
let try_candidate l ~base_sigs ~err (lac : Lac.t) replacement =
  let replaced =
    Graph.rebuild_with l.rb
      ~replace:(fun id -> if id = lac.Lac.target then Some replacement else None)
      l.g
  in
  (* Cheap progress check on the raw rebuild; the (expensive)
     re-optimization runs only on candidates that pass it and can only
     shrink further. *)
  if Graph.num_ands replaced < Graph.num_ands l.g && Aig.Topo.depth replaced <= l.depth_limit
  then begin
    let optimized = optimize l ~initial:false replaced in
    (* [optimize] copies into a fresh graph, so the raw rebuild is dead
       either way from here on. *)
    Graph.recycle l.rb replaced;
    (* The optimizer itself may deepen (refactor trades depth for area);
       guard the graph we would actually keep. *)
    if Aig.Topo.depth optimized > l.depth_limit then false
    else
      match guard_violation l optimized ~predicted:err with
      | Some violation ->
          quarantine l ~base_sigs lac violation;
          false
      | None ->
          commit l ~err lac optimized;
          true
  end
  else begin
    Graph.recycle l.rb replaced;
    false
  end

(* Walk the ranking and accept the first candidate that actually shrinks
   the graph: the gain estimate can be optimistic when the factored form
   re-shares with live logic. *)
let try_apply l ~base_sigs ranked =
  let budget = l.config.threshold *. l.config.margin in
  let corrupt_pending = ref (Fault.corrupt_lac l.config.fault ~iteration:l.st.iteration) in
  let replacement (lac : Lac.t) =
    if !corrupt_pending then begin
      (* Injected ISOP corruption: commit a constant in place of the derived
         function; the prediction still describes the true one, so the
         guard must trip. *)
      corrupt_pending := false;
      let s = base_sigs.(lac.Lac.target) in
      if 2 * Bitvec.popcount s > Bitvec.length s then Graph.Replace_lit Graph.const0
      else Graph.Replace_lit Graph.const1
    end
    else Lac.replacement lac
  in
  let rec walk ~skipped = function
    | [] -> `No_progress
    | (err, _) :: _ when err > budget ->
        (* Smallest remaining error exceeds the budget.  If that holds for
           the very best candidate, terminate (Algorithm 3 line 7); if we
           only got here by skipping no-op candidates, let fresh patterns
           try again first. *)
        if skipped then `No_progress else `Over_budget
    | (err, lac) :: rest ->
        if try_candidate l ~base_sigs ~err lac (replacement lac) then `Applied
        else walk ~skipped:true rest
  in
  walk ~skipped:false ranked

(* Checkpoint: the loop state and graph after an accepted LAC. *)
let checkpoint l = Option.iter (fun j -> Journal.record j l.st l.g) l.journal

(* Algorithm 3 line 10: only after [t] consecutive unproductive iterations
   is the care set shrunk; fresh patterns alone may unblock us. *)
let shrink_rounds l =
  let st = l.st in
  st.patience <- st.patience + 1;
  if st.patience >= l.config.patience then begin
    st.patience <- 0;
    if st.rounds > min_rounds then
      st.rounds <- max min_rounds (int_of_float (float_of_int st.rounds *. l.config.scale))
    else begin
      st.shrinks_at_floor <- st.shrinks_at_floor + 1;
      if st.shrinks_at_floor > 3 then l.stop <- Some Stalled
    end
  end

(* One Algorithm-3 iteration: sample, generate, score, try/commit,
   checkpoint. *)
let iterate l =
  let care_sigs = sample l in
  if Fault.should_raise l.config.fault ~iteration:l.st.iteration then
    raise
      (Fault.Injected (Printf.sprintf "injected exception at iteration %d" l.st.iteration));
  match generate l care_sigs with
  | [] -> shrink_rounds l
  | lacs -> (
      let base_sigs, ranked = score l lacs in
      match try_apply l ~base_sigs ranked with
      | `Applied ->
          l.st.patience <- 0;
          checkpoint l;
          if Graph.num_ands l.g = 0 then l.stop <- Some Emptied
      | `Over_budget -> l.stop <- Some Budget_exhausted
      | `No_progress ->
          (* All candidates were no-ops: treat like an empty candidate set
             so the dynamic-N schedule can unblock us. *)
          shrink_rounds l)

(* Containment: an iteration that blows up (an internal bug, or an injected
   fault) abandons its partial work — [l.g] still holds the last good
   graph — and the flow moves on to fresh patterns. *)
let contained_iteration l =
  if Fault.should_kill l.config.fault ~applied:l.st.applied then raise Fault.Killed;
  l.st.iteration <- l.st.iteration + 1;
  try iterate l
  with e when not (fatal e) ->
    l.st.recovered_exns <- l.st.recovered_exns + 1;
    Log.warn (fun m ->
        m "iter %d: recovered from exception %s; continuing from last good graph"
          l.st.iteration (Printexc.to_string e));
    if l.st.recovered_exns >= max_recovered_exns then l.stop <- Some Stalled

(* ---------- After the loop ---------- *)

(* Under Compress2 the full pipeline runs once more on the final graph,
   guarded exactly like an accepted LAC: compress2 is an exact transform,
   so the error must be bit-for-bit unchanged. *)
let hand_off l =
  match l.config.resyn with
  | Config.Compress2 ->
      let final = Aig.Resyn.compress2 ?resub:(resub_pass l) l.g in
      certify_exact_step l "final resyn" l.g final;
      if Graph.num_ands final < Graph.num_ands l.g && Aig.Topo.depth final <= l.depth_limit
      then begin
        match
          if l.config.guard then guard_violation l final ~predicted:(measure_error l l.g)
          else None
        with
        | None -> l.g <- final
        | Some violation ->
            l.st.guard_rejects <- l.st.guard_rejects + 1;
            Log.warn (fun m ->
                m "final resyn pass rejected by guard (%s); rolled back" violation)
      end
  | Config.No_resyn | Config.Light -> ()

(* The certificate and its bound family.  Each family is only ever claimed
   where it is sound:
   - [Exhaustive]: the measurement already covered the whole input space
     (enumerated support, or exhaustive uniform evaluation) — the sampled
     value IS the true value;
   - [Max_miter]: worst-case metrics under the uniform distribution get the
     exact error-computation-miter certificate ({!Errest.Maxerr});
   - [Hoeffding]: [0,1]-bounded mean metrics under Monte-Carlo sampling
     ({!Errest.Metrics.bounded_mean}); NEVER claimed for a max metric, whose
     sampled value is a lower bound the inequality runs the wrong way for. *)
let certificate l final_err =
  let config = l.config in
  match config.distr with
  | Errest.Distr.Enum _ -> Some { upper = final_err; family = Exhaustive }
  | Errest.Distr.Unif ->
      if Errest.Metrics.is_max config.metric then begin
        if Graph.num_pos l.original > 62 then None
        else
          match
            Errest.Maxerr.certify ~seed:(config.seed + 0x3A7) config.metric
              ~original:l.original ~approx:l.g
          with
          | Errest.Maxerr.Exact { max; _ } -> Some { upper = max; family = Max_miter }
          | Errest.Maxerr.Undecided msg ->
              Log.warn (fun m -> m "max-error certification undecided: %s" msg);
              None
      end
      else if l.exhaustive then Some { upper = final_err; family = Exhaustive }
      else if Errest.Metrics.bounded_mean config.metric then
        Some
          {
            upper =
              Errest.Certify.upper_bound ~sampled:final_err ~samples:(eval_len l)
                ~confidence;
            family = Hoeffding;
          }
      else None

let report l ~resumed ~t_start ~w_start =
  let final_err = measure_error l l.g in
  let certified = certificate l final_err in
  {
    input_ands = Graph.num_ands l.original;
    output_ands = Graph.num_ands l.g;
    applied = l.st.applied;
    final_est_error = final_err;
    certified;
    final_rounds = l.st.rounds;
    runtime_s = Sys.time () -. t_start;
    wall_s = Parallel.Clock.now_s () -. w_start;
    stop_reason = Option.get l.stop;
    guard_rejects = l.st.guard_rejects;
    recovered_exns = l.st.recovered_exns;
    quarantined = List.length l.st.quarantined;
    resumed;
    pool = Parallel.Pool.stats l.pool;
    scoring = l.scoring;
    resub = (if l.config.exact_resub then Some l.resub_stats else None);
    events = List.rev l.st.events;
    certify = (if l.config.certify_exact then Some l.certify else None);
  }

(* The driver.  The loop leaves through exactly one stop reason: set by an
   iteration, or by the [max_iters] / [max_seconds] checks below — the
   latter on the wall clock, since with a worker pool CPU time accumulates
   across domains roughly [jobs] times faster than the wall, which is not
   what a time budget means. *)
let run_loop ~(config : Config.t) ~pool ~cancel ~journal ~original
    ~(init : Journal.state option) g_start =
  let t_start = Sys.time () in
  let w_start = Parallel.Clock.now_s () in
  let l = setup ~config ~pool ~journal ~original ~init g_start in
  if init = None then l.g <- optimize l ~initial:true g_start;
  while l.stop = None do
    if l.st.applied >= config.max_iters then l.stop <- Some Max_iters
    else if Parallel.Clock.now_s () -. w_start >= config.max_seconds then
      l.stop <- Some Timed_out
    else begin
      (* Cooperative cancellation checkpoint: once per iteration here, plus
         every pool chunk boundary via the [should_stop] hook installed by
         [run]/[resume].  The journal (if any) already holds the last
         accepted state, so a cancelled run resumes or rolls back cleanly. *)
      if cancel () then raise Cancelled;
      contained_iteration l
    end
  done;
  hand_off l;
  (l.g, report l ~resumed:(init <> None) ~t_start ~w_start)

let no_cancel () = false

(* Execution policy shared by [run] and [resume]: use the caller's resident
   pool when one is given (the serving layer keeps one pool warm across
   requests), otherwise create and tear down a private one.  When a cancel
   hook is active it is also installed as the pool's [should_stop] for the
   duration of the run — chunk-grained cancellation inside simulation and
   scoring — and restored afterwards, so an external pool comes back
   unchanged.  [Pool.Cancelled] escaping a chunk is normalized to
   {!Cancelled}: callers see one cancellation exception regardless of which
   checkpoint fired first. *)
let with_run_pool ?pool ~jobs ~cancel f =
  let go pool =
    if cancel == no_cancel then f pool
    else
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.set_should_stop pool None)
        (fun () ->
          Parallel.Pool.set_should_stop pool (Some cancel);
          try f pool with Parallel.Pool.Cancelled -> raise Cancelled)
  in
  match pool with
  | Some p -> go p
  | None -> Parallel.Pool.with_pool ~jobs go

let run ?journal ?(cancel = no_cancel) ?pool ~(config : Config.t) g0 =
  let original = Graph.compact g0 in
  let j = Option.map (fun dir -> Journal.create ~dir ~config ~original) journal in
  with_run_pool ?pool ~jobs:config.jobs ~cancel (fun pool ->
      run_loop ~config ~pool ~cancel ~journal:j ~original ~init:None original)

let resume ?(fault = Fault.none) ?jobs ?(cancel = no_cancel) ?pool dir =
  let r = Journal.load dir in
  (match r.Journal.degraded with
  | Some msg -> Log.warn (fun m -> m "resume: %s" msg)
  | None -> ());
  let config = { r.Journal.config with Config.fault } in
  (* The worker-pool size is execution policy, not run identity: results are
     bit-identical at any [jobs], so a resume may use a different pool size
     than the interrupted run. *)
  let config =
    match jobs with Some j -> { config with Config.jobs = j } | None -> config
  in
  let j = Journal.reopen dir in
  with_run_pool ?pool ~jobs:config.Config.jobs ~cancel (fun pool ->
      run_loop ~config ~pool ~cancel ~journal:(Some j) ~original:r.Journal.original
        ~init:r.Journal.state r.Journal.graph)
