(** Multi-start randomized list scheduling.

    The paper's Alg. 1 dispatches operations by a fixed longest-path
    priority; ties and near-ties make the outcome sensitive to the
    dispatch order.  This metaheuristic layer re-runs the engine with
    randomly perturbed priorities and keeps the best schedule — a cheap,
    classic way to shave a few percent off a constructive heuristic.
    The first restart always uses the unperturbed priorities, so the
    result is never worse than {!Engine.run} with [case1 = true]. *)

type t = {
  schedule : Types.t;     (** best schedule found *)
  restarts : int;         (** engine runs performed *)
  improved_over_first : float;
      (** makespan reduction vs the unperturbed run, in seconds *)
}

val schedule :
  ?restarts:int ->
  ?noise:float ->
  ?jobs:int ->
  rng:Mfb_util.Rng.t ->
  tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  t
(** [schedule ~rng ~tc g alloc] runs [restarts] (default 16) engine
    passes; each perturbed pass scales every priority by a uniform factor
    in [\[1 - noise, 1 + noise\]] (default [noise = 0.25]).

    Restarts run on up to [jobs] domains (default 1: sequential).  Each
    perturbed restart draws from its own generator, split off [rng]
    before dispatch ({!Mfb_util.Rng.split_n}), and the winner is reduced
    in fixed restart-index order, so the result is bit-for-bit identical
    for every [jobs] value.
    @raise Invalid_argument if [restarts < 1], [noise < 0] or
    [jobs < 1]. *)
