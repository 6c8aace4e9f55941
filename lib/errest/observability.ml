(* Reporting of the worker-pool counters ({!Parallel.Pool.stats}) alongside
   the flow's other run diagnostics. *)

let pp_pool_stats ppf (stats : Parallel.Pool.stat array) =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i (s : Parallel.Pool.stat) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "worker %d: %6d tasks %5d steals  busy %8.3fs  idle %8.3fs"
        s.Parallel.Pool.worker s.Parallel.Pool.tasks s.Parallel.Pool.steals
        (Parallel.Clock.ns_to_s s.Parallel.Pool.busy_ns)
        (Parallel.Clock.ns_to_s s.Parallel.Pool.idle_ns))
    stats;
  Format.fprintf ppf "@]"

let pool_summary (stats : Parallel.Pool.stat array) =
  let tasks = Array.fold_left (fun a s -> a + s.Parallel.Pool.tasks) 0 stats in
  let steals = Array.fold_left (fun a s -> a + s.Parallel.Pool.steals) 0 stats in
  let busy =
    Array.fold_left
      (fun a s -> a +. Parallel.Clock.ns_to_s s.Parallel.Pool.busy_ns)
      0.0 stats
  in
  Printf.sprintf "%d workers, %d tasks, %d steals, %.3fs busy" (Array.length stats)
    tasks steals busy
