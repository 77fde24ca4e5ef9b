(** Exact (branch-and-bound) binding and scheduling for small bioassays.

    Explores every dispatch order and binding choice of the scheduling
    state machine (via {!Engine.Search}, so timing semantics are identical
    to the heuristics) and returns a completion-time-optimal schedule
    within a virtual-tick fuel budget.  The search prunes with the
    admissible critical-path lower bound and with memoized dominance
    (snapshots whose {!Engine.Search.signature} was already expanded at a
    no-worse accumulated makespan are discarded), and expands children
    best-bound-first under a total deterministic order — the result is a
    pure function of (graph, allocation, tc, fuel), independent of host
    and [--jobs] settings.  Exponential in the worst case; intended for
    assays of up to about a dozen operations, as the ground-truth oracle
    for the list scheduler ({!Engine.run}) and the heuristic flow. *)

type t = {
  schedule : Types.t;
      (** best schedule found; never worse than the DCSA heuristic *)
  optimal : bool;  (** true when the search space was exhausted *)
  truncated : bool;
      (** true when the fuel budget ran out first; the incumbent (at
          worst the heuristic seed) is returned *)
  explored : int;  (** search nodes expanded (= fuel consumed) *)
  fuel : int;      (** the budget the search ran under *)
  heuristic_makespan : float;
      (** makespan of the DCSA heuristic seed, for gap reporting *)
}

val default_fuel : int
(** 200000 expanded nodes. *)

val schedule :
  ?fuel:int ->
  tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  t
(** [schedule ~tc g alloc] minimises the makespan exactly within [fuel]
    (default {!default_fuel}) expanded nodes; when the budget is hit,
    [truncated] is true, [optimal] is false and the best incumbent is
    returned.  The search is seeded with the DCSA heuristic so the
    result is never worse than {!Engine.run} with [case1 = true].
    @raise Invalid_argument if [fuel < 1] or under the same conditions
    as {!Engine.run}. *)
