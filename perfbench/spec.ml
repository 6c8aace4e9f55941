(* The benchmark's workload names and its metric names and units.
   BENCHMARK.json lists the same names; the tests hold the two together,
   and bench.exe refuses to print any other. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("and_ratio", "ratio");
    ("lut_ratio", "ratio");
    ("lut_depth_ratio", "ratio");
    ("heldout_error_ratio", "ratio");
    ("pass_rate", "ratio");
  ]

let per_layer =
  [
    ("core.lac.s", "s");
    ("core.lac.calls", "count");
    ("core.lac.candidates", "count");
    ("core.lac.candidates_per_s", "1/s");
    ("errest.batch.s", "s");
    ("errest.batch.scored", "count");
    ("errest.batch.trivial_ratio", "ratio");
    ("errest.batch.early_exit_ratio", "ratio");
    ("errest.batch.frontier_nodes", "count");
    ("errest.batch.changed_words", "count");
    ("errest.batch.candidates_per_s", "1/s");
    ("sim.engine.s", "s");
    ("sim.engine.calls", "count");
    ("sim.engine.node_words_per_s", "1/s");
    ("errest.metrics.s", "s");
    ("aig.graph.rebuild_s", "s");
    ("aig.graph.rebuilds", "count");
    ("aig.graph.rebuilds_per_accept", "ratio");
    ("core.resub_exact.s", "s");
    ("core.resub_exact.targets", "count");
    ("core.resub_exact.feasible", "count");
    ("core.resub_exact.derived", "count");
    ("core.resub_exact.sim_refuted", "count");
    ("core.resub_exact.accepted", "count");
    ("core.resub_exact.accept_ratio", "ratio");
    ("core.resub_exact.cec_undecided", "count");
    ("core.resub_exact.cec_refuted", "count");
    ("verify.cec.s", "s");
    ("verify.cec.calls", "count");
    ("verify.cec.undecided", "count");
    ("aig.resyn.light_s", "s");
    ("aig.resyn.compress2_s", "s");
    ("aig.resyn.ands_removed", "count");
    ("techmap.lutmap.s", "s");
    ("core.flow.applied", "count");
    ("core.flow.final_rounds", "count");
    ("core.flow.guard_rejects", "count");
    ("core.flow.accepts_per_kcand", "ratio");
    ("core.flow.unattributed_s", "s");
    ("trace.overhead_s", "s");
  ]

let workloads = [ "control-er"; "arith-wide"; "exact-opt" ]

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
