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

(* ---------- Format versions ---------- *)

let manifest_header = "alsrac-journal 2"
let checkpoint_header = "alsrac-checkpoint 2"

let outdated_header ~current line =
  match (String.split_on_char ' ' line, String.split_on_char ' ' current) with
  | [ name; v ], [ name'; v' ] when name = name' -> (
      match (int_of_string_opt v, int_of_string_opt v') with
      | Some v, Some v' -> v >= 1 && v < v'
      | _ -> false)
  | _ -> false

let check_header ~what ~current line =
  if line <> current then
    if outdated_header ~current line then
      failwith
        (Printf.sprintf
           "%s: format %S is no longer supported (this build reads %S); \
            re-run from scratch"
           what line current)
    else failwith (Printf.sprintf "%s: bad header" what)

(* ---------- Scalars ---------- *)

(* Hex floats round-trip exactly; [infinity] needs a spelling of its own. *)
let emit_float f =
  if f = infinity then "inf"
  else if f = neg_infinity then "-inf"
  else Printf.sprintf "%h" f

let parse_float_exn what s =
  match s with
  | "inf" -> infinity
  | "-inf" -> neg_infinity
  | _ -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> failwith (Printf.sprintf "journal: bad float for %s: %S" what s))

let parse_int_exn what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "journal: bad integer for %s: %S" what s)

(* ---------- Config serialization ---------- *)

let resyn_to_string = function
  | Config.No_resyn -> "none"
  | Config.Light -> "light"
  | Config.Compress2 -> "compress2"

let resyn_of_string = function
  | "none" -> Config.No_resyn
  | "light" -> Config.Light
  | "compress2" -> Config.Compress2
  | s -> failwith (Printf.sprintf "journal: bad resyn level %S" s)

let config_to_string (c : Config.t) =
  let buf = Buffer.create 512 in
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s %s\n" k v) in
  kv "metric" (Errest.Metrics.kind_to_string c.metric);
  kv "threshold" (emit_float c.threshold);
  kv "sim_rounds" (string_of_int c.sim_rounds);
  kv "lac_limit" (string_of_int c.lac_limit);
  kv "patience" (string_of_int c.patience);
  kv "scale" (emit_float c.scale);
  kv "min_rounds" (string_of_int c.min_rounds);
  kv "eval_rounds" (string_of_int c.eval_rounds);
  kv "max_tfi_divisors" (string_of_int c.max_tfi_divisors);
  kv "seed" (string_of_int c.seed);
  kv "resyn" (resyn_to_string c.resyn);
  kv "max_iters" (string_of_int c.max_iters);
  kv "margin" (emit_float c.margin);
  kv "max_seconds" (emit_float c.max_seconds);
  kv "distr" (Errest.Distr.to_string c.distr);
  (match c.input_probs with
  | None -> kv "input_probs" "none"
  | Some probs ->
      kv "input_probs"
        (String.concat "," (Array.to_list (Array.map emit_float probs))));
  kv "max_depth_growth" (emit_float c.max_depth_growth);
  kv "guard" (string_of_bool c.guard);
  kv "guard_tol" (emit_float c.guard_tol);
  kv "confidence" (emit_float c.confidence);
  kv "certify_exact" (string_of_bool c.certify_exact);
  kv "exact_resub" (string_of_bool c.exact_resub);
  kv "jobs" (string_of_int c.jobs);
  (* The fault plan is deliberately NOT persisted: injected faults belong to
     one process's run, not to the journal a resumed run continues from. *)
  Buffer.contents buf

let parse_bool_exn what s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> failwith (Printf.sprintf "journal: bad boolean for %s: %S" what s)

let config_of_string text =
  let c = ref (Config.default ~metric:Errest.Metrics.Er ~threshold:0.0) in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" then
           let key, value =
             match String.index_opt line ' ' with
             | Some sp ->
                 ( String.sub line 0 sp,
                   String.sub line (sp + 1) (String.length line - sp - 1) )
             | None -> (line, "")
           in
           match key with
           | "metric" -> (
               match Errest.Metrics.kind_of_string value with
               | Some m -> c := { !c with Config.metric = m }
               | None -> failwith (Printf.sprintf "journal: bad metric %S" value))
           | "threshold" -> c := { !c with Config.threshold = parse_float_exn key value }
           | "sim_rounds" -> c := { !c with Config.sim_rounds = parse_int_exn key value }
           | "lac_limit" -> c := { !c with Config.lac_limit = parse_int_exn key value }
           | "patience" -> c := { !c with Config.patience = parse_int_exn key value }
           | "scale" -> c := { !c with Config.scale = parse_float_exn key value }
           | "min_rounds" -> c := { !c with Config.min_rounds = parse_int_exn key value }
           | "eval_rounds" -> c := { !c with Config.eval_rounds = parse_int_exn key value }
           | "max_tfi_divisors" ->
               c := { !c with Config.max_tfi_divisors = parse_int_exn key value }
           | "seed" -> c := { !c with Config.seed = parse_int_exn key value }
           | "resyn" -> c := { !c with Config.resyn = resyn_of_string value }
           | "max_iters" -> c := { !c with Config.max_iters = parse_int_exn key value }
           | "margin" -> c := { !c with Config.margin = parse_float_exn key value }
           | "max_seconds" -> c := { !c with Config.max_seconds = parse_float_exn key value }
           | "distr" -> (
               match Errest.Distr.of_string value with
               | Ok d -> c := { !c with Config.distr = d }
               | Error msg ->
                   failwith (Printf.sprintf "journal: bad distr: %s" msg))
           | "input_probs" ->
               let probs =
                 if value = "none" then None
                 else
                   Some
                     (String.split_on_char ',' value
                     |> List.map (parse_float_exn key)
                     |> Array.of_list)
               in
               c := { !c with Config.input_probs = probs }
           | "max_depth_growth" ->
               c := { !c with Config.max_depth_growth = parse_float_exn key value }
           | "guard" -> c := { !c with Config.guard = parse_bool_exn key value }
           | "guard_tol" -> c := { !c with Config.guard_tol = parse_float_exn key value }
           | "confidence" -> c := { !c with Config.confidence = parse_float_exn key value }
           | "certify_exact" ->
               c := { !c with Config.certify_exact = parse_bool_exn key value }
           | "exact_resub" ->
               c := { !c with Config.exact_resub = parse_bool_exn key value }
           | "jobs" -> c := { !c with Config.jobs = parse_int_exn key value }
           | _ -> failwith (Printf.sprintf "journal: unknown config key %S" key));
  !c

(* ---------- Checkpoint serialization ---------- *)

let checksum s =
  let h = ref 0 in
  String.iter (fun ch -> h := ((!h * 131) + Char.code ch) land 0x3FFFFFFF) s;
  !h

let state_to_string state graph_text =
  let buf = Buffer.create (String.length graph_text + 1024) in
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s %s\n" k v) in
  Buffer.add_string buf (checkpoint_header ^ "\n");
  kv "rng" (Int64.to_string (Logic.Rng.state state.rng));
  kv "rounds" (string_of_int state.rounds);
  kv "patience" (string_of_int state.patience);
  kv "shrinks_at_floor" (string_of_int state.shrinks_at_floor);
  kv "applied" (string_of_int state.applied);
  kv "iteration" (string_of_int state.iteration);
  kv "accepts_since_full" (string_of_int state.accepts_since_full);
  kv "guard_rejects" (string_of_int state.guard_rejects);
  kv "recovered_exns" (string_of_int state.recovered_exns);
  kv "quarantined"
    (String.concat " " (List.map string_of_int state.quarantined));
  kv "events" (string_of_int (List.length state.events));
  List.iter
    (fun (e : event) ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %s %d %d\n" e.iteration e.target
           (emit_float e.est_error) e.ands_after e.rounds))
    state.events;
  kv "graph"
    (Printf.sprintf "%d %d" (String.length graph_text) (checksum graph_text));
  Buffer.add_string buf graph_text;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let parse_checkpoint text =
  let len = String.length text in
  let pos = ref 0 in
  let next_line () =
    if !pos >= len then failwith "journal: truncated checkpoint";
    match String.index_from_opt text !pos '\n' with
    | None -> failwith "journal: truncated checkpoint"
    | Some i ->
        let s = String.sub text !pos (i - !pos) in
        pos := i + 1;
        s
  in
  let field key =
    let line = next_line () in
    match String.index_opt line ' ' with
    | Some sp when String.sub line 0 sp = key ->
        String.sub line (sp + 1) (String.length line - sp - 1)
    | _ -> failwith (Printf.sprintf "journal: expected %S field, got %S" key line)
  in
  check_header ~what:"journal checkpoint" ~current:checkpoint_header (next_line ());
  let rng =
    let s = field "rng" in
    match Int64.of_string_opt s with
    | Some v -> Logic.Rng.of_state v
    | None -> failwith (Printf.sprintf "journal: bad rng state %S" s)
  in
  let rounds = parse_int_exn "rounds" (field "rounds") in
  let patience = parse_int_exn "patience" (field "patience") in
  let shrinks_at_floor = parse_int_exn "shrinks_at_floor" (field "shrinks_at_floor") in
  let applied = parse_int_exn "applied" (field "applied") in
  let iteration = parse_int_exn "iteration" (field "iteration") in
  let accepts_since_full =
    parse_int_exn "accepts_since_full" (field "accepts_since_full")
  in
  let guard_rejects = parse_int_exn "guard_rejects" (field "guard_rejects") in
  let recovered_exns = parse_int_exn "recovered_exns" (field "recovered_exns") in
  let quarantined =
    field "quarantined" |> String.split_on_char ' '
    |> List.filter (fun s -> s <> "")
    |> List.map (parse_int_exn "quarantined")
  in
  let nevents = parse_int_exn "events" (field "events") in
  if nevents < 0 then failwith "journal: negative event count";
  (* Each event is one line: bound the claimed count by the bytes left. *)
  if nevents > len - !pos then failwith "journal: event count exceeds file size";
  let events =
    List.init nevents (fun _ ->
        let line = next_line () in
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ it; tg; err; ands; rds ] ->
            {
              iteration = parse_int_exn "event iteration" it;
              target = parse_int_exn "event target" tg;
              est_error = parse_float_exn "event est_error" err;
              ands_after = parse_int_exn "event ands_after" ands;
              rounds = parse_int_exn "event rounds" rds;
            }
        | _ -> failwith (Printf.sprintf "journal: bad event line %S" line))
  in
  let nbytes, sum =
    match String.split_on_char ' ' (field "graph") with
    | [ n; s ] -> (parse_int_exn "graph size" n, parse_int_exn "graph checksum" s)
    | _ -> failwith "journal: bad graph field"
  in
  if nbytes < 0 || !pos + nbytes > len then failwith "journal: truncated graph section";
  let graph_text = String.sub text !pos nbytes in
  pos := !pos + nbytes;
  if checksum graph_text <> sum then failwith "journal: graph checksum mismatch";
  if next_line () <> "end" then failwith "journal: missing end marker";
  let graph = Circuit_io.Aiger.parse graph_text in
  ( {
      rng;
      rounds;
      patience;
      shrinks_at_floor;
      applied;
      iteration;
      accepts_since_full;
      guard_rejects;
      recovered_exns;
      quarantined;
      events;
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
  Circuit_io.Atomic_file.write (manifest_file dir)
    (manifest_header ^ "\n" ^ config_to_string config ^ "end\n");
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
  let path = manifest_file dir in
  let text =
    try Circuit_io.Atomic_file.read path
    with Sys_error msg -> failwith (Printf.sprintf "journal: cannot read manifest: %s" msg)
  in
  match String.index_opt text '\n' with
  | Some i ->
      check_header ~what:"journal manifest" ~current:manifest_header (String.sub text 0 i);
      let body = String.sub text (i + 1) (String.length text - i - 1) in
      let body =
        (* The trailing "end" marker detects truncation. *)
        match String.split_on_char '\n' body |> List.rev with
        | "" :: "end" :: rev_rest | "end" :: rev_rest ->
            String.concat "\n" (List.rev rev_rest)
        | _ -> failwith "journal: truncated manifest"
      in
      config_of_string body
  | None -> failwith "journal manifest: bad header"

(* A checkpoint of an older format version is not corruption to fall back
   from: the whole run directory predates this build, so [load] refuses it
   instead of silently restarting. *)
let reject_outdated_checkpoint text =
  let first = match String.index_opt text '\n' with Some i -> String.sub text 0 i | None -> text in
  if outdated_header ~current:checkpoint_header first then
    check_header ~what:"journal checkpoint" ~current:checkpoint_header first

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
          reject_outdated_checkpoint text;
          match parse_checkpoint text with
          | state, graph -> Some (Ok (state, graph))
          | exception Failure msg -> Some (Error msg))
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
