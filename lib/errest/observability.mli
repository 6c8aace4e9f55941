(** Execution observability: rendering of the worker-pool counters carried
    in flow reports — per worker, tasks executed, steals, and busy/idle wall
    time. *)

val pp_pool_stats : Format.formatter -> Parallel.Pool.stat array -> unit
(** Multi-line, one worker per line. *)

val pool_summary : Parallel.Pool.stat array -> string
(** One-line aggregate: worker count, total tasks/steals, total busy
    seconds. *)
