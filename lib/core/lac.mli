(** Local-approximate-change candidates (Algorithm 2).

    A LAC replaces target node [V] by a function of a feasible divisor set,
    derived from the approximate care set.  [gain] is the estimated AND-gate
    saving: the target's MFFC nodes that truly die (divisor cones inside the
    MFFC stay alive) minus the factored-form cost.  Candidates with negative
    estimates are dropped; the flow separately verifies real progress on the
    rebuilt graph, since structural hashing can shift the estimate in either
    direction. *)

type t = {
  target : int;
  divisors : int array;
  cover : Logic.Cover.t;
  expr : Logic.Factor.expr;
  gain : int;
}

val generate :
  ?pool:Parallel.Pool.t ->
  Aig.Graph.t ->
  config:Config.t ->
  sigs:Logic.Bitvec.t array ->
  rounds:int ->
  t list
(** [sigs] are node signatures of the care-pattern simulation ([rounds]
    rounds, cf. Algorithm 2 line 1).  At most [config.lac_limit] candidates
    per node.  With [?pool], target nodes are processed
    concurrently (falling back to concurrent per-set care scans when the
    pool outnumbers the targets); the returned list — contents and order —
    is identical at any pool size. *)

val replacement : t -> Aig.Graph.replacement

val pp : Format.formatter -> t -> unit
