(** Divisor feasibility (Theorem 1 restricted to simulated patterns,
    Section III-B2).

    A divisor set can form an approximate resubstitution function when no two
    simulated rounds produce the same divisor tuple with different target
    values — i.e. the care scan contains no {!Care.Conflict} entry. *)

val ok : Care.t -> bool

val check :
  sigs:Logic.Bitvec.t array ->
  node:int ->
  divisors:int array ->
  rounds:int ->
  bool
(** Convenience: scan then test. *)

val filter :
  ?pool:Parallel.Pool.t ->
  sigs:Logic.Bitvec.t array ->
  node:int ->
  sets:int array array ->
  rounds:int ->
  unit ->
  (int array * Care.t) list
(** Care-scan every divisor set of one target node and keep the feasible
    ones together with their scans, preserving the input order.  With
    [?pool] the (independent, read-only) scans run concurrently; the result
    is identical at any pool size. *)
