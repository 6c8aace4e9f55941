type resyn_level = No_resyn | Light | Compress2

type t = {
  metric : Errest.Metrics.kind;
  threshold : float;
  sim_rounds : int;
  lac_limit : int;
  patience : int;
  scale : float;
  eval_rounds : int;
  seed : int;
  resyn : resyn_level;
  max_iters : int;
  margin : float;
  max_seconds : float;
  distr : Errest.Distr.t;
  input_probs : float array option;
  max_depth_growth : float;
  guard : bool;
  certify_exact : bool;
  exact_resub : bool;
  fault : Fault.plan;
  jobs : int;
}

let default ~metric ~threshold =
  {
    metric;
    threshold;
    sim_rounds = 32;
    lac_limit = 1;
    patience = 5;
    scale = 0.9;
    eval_rounds = 4096;
    seed = 1;
    resyn = Compress2;
    max_iters = 10_000;
    margin = 1.0;
    max_seconds = infinity;
    distr = Errest.Distr.Unif;
    input_probs = None;
    max_depth_growth = 1.3;
    guard = true;
    certify_exact = false;
    exact_resub = false;
    fault = Fault.none;
    jobs = 1;
  }

let pp ppf t =
  Format.fprintf ppf
    "metric=%s threshold=%g N=%d L=%d t=%d r=%g eval=%d seed=%d jobs=%d distr=%s"
    (Errest.Metrics.kind_to_string t.metric)
    t.threshold t.sim_rounds t.lac_limit t.patience t.scale t.eval_rounds t.seed
    t.jobs
    (match t.distr with
    | Errest.Distr.Unif -> "unif"
    | Errest.Distr.Enum { rows; _ } ->
        Printf.sprintf "enum(%d rows)" (Array.length rows))
