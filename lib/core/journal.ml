module Graph = Aig.Graph

type event = {
  iteration : int;
  target : int;
  est_error : float;
  ands_after : int;
  rounds : int;
}

type state = {
  rng : Logic.Rng.t;
  mutable rounds : int;
  mutable patience : int;
  mutable shrinks_at_floor : int;
  mutable applied : int;
  mutable iteration : int;
  mutable accepts_since_full : int;
  mutable guard_rejects : int;
  mutable recovered_exns : int;
  mutable quarantined : int list;
  mutable events : event list;
}

let fresh ~rng ~rounds =
  {
    rng;
    rounds;
    patience = 0;
    shrinks_at_floor = 0;
    applied = 0;
    iteration = 0;
    accepts_since_full = 0;
    guard_rejects = 0;
    recovered_exns = 0;
    quarantined = [];
    events = [];
  }

type t = { dir : string }

type resume = {
  config : Config.t;
  original : Graph.t;
  graph : Graph.t;
  state : state option;
  degraded : string option;
}

let manifest_file dir = Filename.concat dir "manifest"
let original_file dir = Filename.concat dir "original.aag"
let checkpoint_file dir = Filename.concat dir "checkpoint"
let checkpoint_prev_file dir = Filename.concat dir "checkpoint.prev"

let dir t = t.dir

(* ---------- Serialization (one Circuit_io.Record each) ---------- *)

module Record = Circuit_io.Record

let manifest_header = "alsrac-journal 3"
let checkpoint_header = "alsrac-checkpoint 3"

let resyn_to_string = function
  | Config.No_resyn -> "none"
  | Config.Light -> "light"
  | Config.Compress2 -> "compress2"

let resyn_of_string = function
  | "none" -> Some Config.No_resyn
  | "light" -> Some Config.Light
  | "compress2" -> Some Config.Compress2
  | _ -> None

(* [sep]-separated values, every one of which [parse] must accept. *)
let parse_list sep parse s =
  let xs = List.map parse (String.split_on_char sep s) in
  if List.mem None xs then None else Some (List.map Option.get xs)

let config_to_string (c : Config.t) =
  let float = Record.float_to_string and int = string_of_int in
  Record.encode ~header:manifest_header
    [
      ("metric", Errest.Metrics.kind_to_string c.metric);
      ("threshold", float c.threshold);
      ("sim_rounds", int c.sim_rounds);
      ("lac_limit", int c.lac_limit);
      ("patience", int c.patience);
      ("scale", float c.scale);
      ("eval_rounds", int c.eval_rounds);
      ("seed", int c.seed);
      ("resyn", resyn_to_string c.resyn);
      ("max_iters", int c.max_iters);
      ("margin", float c.margin);
      ("max_seconds", float c.max_seconds);
      ("distr", Errest.Distr.to_string c.distr);
      ( "input_probs",
        match c.input_probs with
        | None -> "none"
        | Some probs -> String.concat "," (Array.to_list (Array.map float probs)) );
      ("max_depth_growth", float c.max_depth_growth);
      ("guard", string_of_bool c.guard);
      ("certify_exact", string_of_bool c.certify_exact);
      ("exact_resub", string_of_bool c.exact_resub);
      ("jobs", int c.jobs);
      (* The fault plan is deliberately NOT persisted: injected faults
         belong to one process's run, not to the journal a resumed run
         continues from. *)
    ]

let config_of_string text =
  let r = Record.decode ~what:"journal manifest" ~header:manifest_header text in
  let float = Record.float r and int = Record.int r in
  {
    Config.metric = Record.get_as r "metric" Errest.Metrics.kind_of_string;
    threshold = float "threshold";
    sim_rounds = int "sim_rounds";
    lac_limit = int "lac_limit";
    patience = int "patience";
    scale = float "scale";
    eval_rounds = int "eval_rounds";
    seed = int "seed";
    resyn = Record.get_as r "resyn" resyn_of_string;
    max_iters = int "max_iters";
    margin = float "margin";
    max_seconds = float "max_seconds";
    distr =
      (match Errest.Distr.of_string (Record.get r "distr") with
      | Ok d -> d
      | Error msg -> Record.fail r ("bad distr: " ^ msg));
    input_probs =
      Record.get_as r "input_probs" (function
        | "none" -> Some None
        | s ->
            Option.map
              (fun l -> Some (Array.of_list l))
              (parse_list ',' Record.float_of_string s));
    max_depth_growth = float "max_depth_growth";
    guard = Record.bool r "guard";
    certify_exact = Record.bool r "certify_exact";
    exact_resub = Record.bool r "exact_resub";
    fault = Fault.none;
    jobs = int "jobs";
  }

let event_to_string (e : event) =
  Printf.sprintf "%d %d %s %d %d" e.iteration e.target
    (Record.float_to_string e.est_error) e.ands_after e.rounds

let event_of_string s =
  Scanf.sscanf_opt s "%d %d %s %d %d%!" (fun iteration target err ands_after rounds ->
      Option.map
        (fun est_error -> { iteration; target; est_error; ands_after; rounds })
        (Record.float_of_string err))
  |> Option.join

let state_to_string state graph_text =
  let int = string_of_int in
  Record.encode ~header:checkpoint_header ~blob:graph_text
    ([
       ("rng", Int64.to_string (Logic.Rng.state state.rng));
       ("rounds", int state.rounds);
       ("patience", int state.patience);
       ("shrinks_at_floor", int state.shrinks_at_floor);
       ("applied", int state.applied);
       ("iteration", int state.iteration);
       ("accepts_since_full", int state.accepts_since_full);
       ("guard_rejects", int state.guard_rejects);
       ("recovered_exns", int state.recovered_exns);
       ("quarantined", String.concat " " (List.map int state.quarantined));
     ]
    @ List.map (fun e -> ("event", event_to_string e)) state.events)

let parse_checkpoint text =
  let r = Record.decode ~what:"journal checkpoint" ~header:checkpoint_header text in
  let int = Record.int r in
  let graph =
    match Record.blob r with
    | Some g -> Circuit_io.Aiger.parse g
    | None -> Record.fail r "no graph"
  in
  ( {
      rng = Logic.Rng.of_state (Record.get_as r "rng" Int64.of_string_opt);
      rounds = int "rounds";
      patience = int "patience";
      shrinks_at_floor = int "shrinks_at_floor";
      applied = int "applied";
      iteration = int "iteration";
      accepts_since_full = int "accepts_since_full";
      guard_rejects = int "guard_rejects";
      recovered_exns = int "recovered_exns";
      quarantined =
        Record.get_as r "quarantined" (function
          | "" -> Some []
          | s -> parse_list ' ' int_of_string_opt s);
      events =
        List.map
          (fun s ->
            match event_of_string s with
            | Some e -> e
            | None -> Record.fail r (Printf.sprintf "bad event %S" s))
          (Record.find_all r "event");
    },
    graph )

(* ---------- Run directory ---------- *)

let create ~dir ~(config : Config.t) ~original =
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755
     with Sys_error msg -> failwith (Printf.sprintf "journal: cannot create %s: %s" dir msg));
  if not (Sys.is_directory dir) then
    failwith (Printf.sprintf "journal: %s is not a directory" dir);
  (* A fresh run must not inherit checkpoints from a previous one — nor the
     [*.tmp.*] staging debris a killed run may have stranded. *)
  Circuit_io.Atomic_file.sweep_debris dir;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ checkpoint_file dir; checkpoint_prev_file dir ];
  Circuit_io.Atomic_file.write (manifest_file dir) (config_to_string config);
  Circuit_io.Aiger.write_graph (original_file dir) original;
  { dir }

let reopen dir =
  if not (Sys.file_exists dir && Sys.is_directory dir && Sys.file_exists (manifest_file dir))
  then failwith (Printf.sprintf "journal: %s is not a journal directory" dir);
  Circuit_io.Atomic_file.sweep_debris dir;
  { dir }

let record t state graph =
  let contents = state_to_string state (Circuit_io.Aiger.graph_to_string graph) in
  let cp = checkpoint_file t.dir in
  (* Rotate, then write atomically: at any instant the directory holds at
     least one complete checkpoint (or none at all, right after [create]). *)
  if Sys.file_exists cp then Sys.rename cp (checkpoint_prev_file t.dir);
  Circuit_io.Atomic_file.write cp contents

let load_manifest dir =
  match Circuit_io.Atomic_file.read (manifest_file dir) with
  | text -> config_of_string text
  | exception Sys_error msg -> failwith ("journal: cannot read manifest: " ^ msg)

let load dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    failwith (Printf.sprintf "journal: %s is not a journal directory" dir);
  (* Same kill-crash debris leak the point stores had: a run killed inside
     [Atomic_file.write] strands the staged temp next to the checkpoint. *)
  Circuit_io.Atomic_file.sweep_debris dir;
  let config = load_manifest dir in
  let original =
    try Circuit_io.Aiger.read (original_file dir)
    with Sys_error msg ->
      failwith (Printf.sprintf "journal: cannot read original circuit: %s" msg)
  in
  let try_checkpoint path =
    if not (Sys.file_exists path) then None
    else
      match Circuit_io.Atomic_file.read path with
      | exception Sys_error msg -> Some (Error msg)
      | text -> (
          match parse_checkpoint text with
          | state, graph -> Some (Ok (state, graph))
          (* An older format version is not corruption to fall back from:
             the whole run directory predates this build, so it is refused
             instead of silently restarting. *)
          | exception Failure msg
            when not (Record.outdated ~header:checkpoint_header text) ->
              Some (Error msg))
  in
  let primary = try_checkpoint (checkpoint_file dir) in
  let fallback = try_checkpoint (checkpoint_prev_file dir) in
  match (primary, fallback) with
  | Some (Ok (state, graph)), _ ->
      { config; original; graph; state = Some state; degraded = None }
  | Some (Error msg), Some (Ok (state, graph)) ->
      {
        config;
        original;
        graph;
        state = Some state;
        degraded = Some (Printf.sprintf "checkpoint unreadable (%s); resumed from previous checkpoint" msg);
      }
  | None, Some (Ok (state, graph)) ->
      (* The crash hit between rotation and the new write. *)
      {
        config;
        original;
        graph;
        state = Some state;
        degraded = Some "checkpoint missing; resumed from previous checkpoint";
      }
  | Some (Error msg), (Some (Error _) | None) ->
      {
        config;
        original;
        graph = original;
        state = None;
        degraded = Some (Printf.sprintf "all checkpoints unreadable (%s); restarting from the original circuit" msg);
      }
  | None, Some (Error msg) ->
      {
        config;
        original;
        graph = original;
        state = None;
        degraded = Some (Printf.sprintf "all checkpoints unreadable (%s); restarting from the original circuit" msg);
      }
  | None, None -> { config; original; graph = original; state = None; degraded = None }
