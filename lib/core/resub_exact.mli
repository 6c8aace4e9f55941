(** Simulation-guided exact Boolean resubstitution (Lee, Riener,
    Mishchenko — "Simulation-Guided Boolean Resubstitution",
    arXiv 2007.02579), validated by the CEC portfolio instead of SAT.

    The engine shares ALSRAC's whole substrate: divisor candidates come from
    the nearest-first, signature-filtered {!Divisor.collect}; don't-cares
    from the {!Care} tuple tables (an unseen divisor tuple is a free choice
    for the resubstitution function); the function itself from the same
    Espresso-ISOP + factoring pipeline as approximate LACs ({!Resub});
    candidate scoring runs through the event-driven {!Errest.Batch} kernel.
    What makes it EXACT is the commit protocol: a candidate is only applied
    if {!Verify.Cec} proves the rebuilt graph equivalent to the pre-sweep
    graph — [Undecided] is a rollback, never an accept — so don't-cares can
    be approximated from simulation without ever risking the function.

    Each pass sweeps the AND nodes in topological order.  Per target:
    0-resub (constant on every pattern), then k-resub for k ≤ 3 over the
    nearest divisors, choosing the candidate with the best net AND saving
    (MFFC nodes freed minus {!Logic.Factor.and2_cost}).  Passes repeat
    until a sweep accepts nothing (bounded by [max_passes]).

    Deterministic: the sweep is sequential; a pool only accelerates the
    bit-identical simulation and batch-scoring primitives, so results are
    byte-identical at any pool size. *)

type config = {
  seed : int;  (** fixes the pattern stream and the CEC seed *)
  rounds : int;  (** simulation rounds per sweep (exhaustive if it fits) *)
  cec_rounds : int;  (** refutation rounds of each certification call *)
  max_passes : int;  (** sweep cap; passes stop early at a fixpoint *)
}
(** The engine's fixed limits are constants: 2048 independent re-simulation
    rounds gate each commit of a non-exhaustive sweep before CEC; at most 48
    divisors are collected per target, the nearest 20 of them paired and
    the nearest 10 tripled; 4 ISOP derivations per target; [Fast] CEC
    effort; and a sweep stops attempting commits after 4 consecutive
    [Undecided] verdicts, since on graphs whose delta miters the portfolio
    cannot close (deep dividers, square roots) every attempt is a
    seconds-long guaranteed rollback. *)

val default : config
(** Seed 1, 1024 rounds, 256 CEC rounds, 4 passes. *)

type stats = {
  passes : int;  (** sweeps run *)
  targets : int;  (** live AND nodes visited *)
  feasible : int;  (** conflict-free divisor sets found *)
  derived : int;  (** ISOP derivations performed *)
  accepted : int;  (** resubstitutions committed — all CEC-proven *)
  sim_refuted : int;
      (** candidates killed by the independent re-simulation filter — the
          cheap stage that keeps false candidates away from the portfolio *)
  cec_undecided : int;  (** candidates rolled back on an [Undecided] verdict *)
  cec_refuted : int;
      (** candidates the portfolio proved wrong — simulation don't-cares
          that were not don't-cares; caught before commit by design *)
  batch : Errest.Batch.stats;  (** scoring-kernel counters of the sweeps *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val run :
  ?pool:Parallel.Pool.t ->
  ?config:config ->
  Aig.Graph.t ->
  Aig.Graph.t * stats
(** Run passes to a fixpoint (or [max_passes]).  The result is proven
    equivalent to the input at every commit point, never larger in AND
    count, and has the same PI/PO interface.  The input is not modified. *)

val pass : ?pool:Parallel.Pool.t -> ?config:config -> unit -> Aig.Graph.t -> Aig.Graph.t
(** [pass () ] is {!run} with the stats dropped — the shape
    {!Aig.Resyn.compress2}'s [?resub] hook expects. *)
