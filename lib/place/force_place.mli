(** Force-directed placement: the classic quadratic-wirelength relaxation
    with greedy legalization, as an alternative to the paper's simulated
    annealing.

    Components are modelled as points connected by springs whose strength
    is the net's connection priority (Eq. 4); iterating the weighted
    centroid equation pulls connected components together.  The continuous
    solution is then legalized onto the grid by snapping components, in
    decreasing connectivity order, to the nearest legal anchor.

    Deterministic, much faster than annealing, and usually slightly worse
    on Eq. 3 — a useful speed/quality point, the placer of
    [Mfb_core.Flow.run ~variant:`Force_directed] (ablation A4). *)

type result = {
  chip : Chip.t;
  energy : float;        (** Eq. 3 + compaction, comparable to
                             {!Annealer.place} *)
  iterations : int;      (** relaxation iterations performed *)
}

val place :
  nets:Energy.weighted_net list ->
  Mfb_component.Component.t array ->
  result
(** [place ~nets components] runs up to 100 relaxation sweeps, then
    legalizes.  The result is always a legal placement. *)
