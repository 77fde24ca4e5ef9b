(** Architectural exploration: choosing the component allocation.

    The paper takes the allocation vectors of Table I as inputs; the
    upstream step that picks them is architectural synthesis (Minhass et
    al., cited as [6]).  This module explores the allocation space with
    the DCSA scheduler as the evaluation engine and returns the Pareto
    frontier of (component count, completion time). *)

type point = {
  allocation : Mfb_component.Allocation.t;
  components : int;        (** total allocated components *)
  completion_time : float; (** DCSA schedule makespan *)
  utilization : float;     (** Eq. 1 on that schedule *)
}

val explore :
  ?tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  point list
(** [explore g] evaluates every allocation from the minimal one up to
    8 components per kind used by [g] (kinds absent from [g] stay at
    zero) and keeps the Pareto-optimal points: no other allocation is
    both smaller and faster.  Sorted by component count.  Scheduling
    only — placement and routing are left to the caller for the chosen
    point. *)

val knee : point list -> point option
(** The frontier point with the best marginal trade-off: the smallest
    allocation within 5 % of the fastest completion time; [None] on the
    empty list. *)
