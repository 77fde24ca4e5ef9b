(** Backend selection and the exact-vs-heuristic portfolio runner.

    The flow can schedule with three backends: the paper's DCSA heuristic
    ({!Engine.run}), the branch-and-bound oracle ({!Exact}), or a
    portfolio that races both and keeps the better schedule.  The race is
    deterministic by construction: each arm runs to completion under its
    own virtual-tick budget (the exact arm's fuel is the cooperative
    cancellation point), and the "first finisher" is the arm with the
    better makespan, ties broken by fewer virtual ticks and then by arm
    index — never by wall-clock or domain-scheduling order.  The selected
    schedule is bit-identical to what the selected backend would have
    produced on its own, for every [jobs] value. *)

type backend = Heuristic | Exact | Portfolio

val backend_to_string : backend -> string
(** ["heuristic"], ["exact"] or ["portfolio"] — the CLI / config / JSON
    spelling. *)

val backend_of_string : string -> backend option

val all_backends : backend list

type arm = Heuristic_arm | Exact_arm

val arm_to_string : arm -> string

type decision = {
  backend : backend;  (** which backend produced this decision *)
  selected : arm;  (** the arm whose schedule was kept *)
  optimal : bool;  (** exact arm proved optimality within fuel *)
  truncated : bool;  (** exact arm ran out of fuel *)
  explored : int;  (** nodes the exact arm expanded *)
  fuel : int;  (** the exact arm's budget *)
  ticks : int;  (** virtual ticks consumed by the selected arm *)
  heuristic_makespan : float;
  makespan : float;  (** makespan of the selected schedule *)
}

val gap_percent : decision -> float
(** Relative improvement of the selected schedule over the heuristic,
    in percent (0 when the heuristic was selected or its makespan is 0). *)

val decision_to_json : decision -> Mfb_util.Json.t

val exact :
  ?fuel:int ->
  tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Types.t * decision
(** {!Exact.schedule} wrapped into a (schedule, decision) pair. *)

val race :
  ?fuel:int ->
  ?jobs:int ->
  tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Types.t * decision
(** Race the heuristic against the exact search on a {!Mfb_util.Pool} of
    up to [jobs] domains (default 1: both arms run sequentially with the
    same result).  Deterministic first-finisher selection as described
    above; the exact arm is seeded with the heuristic, so the portfolio
    never returns a schedule worse than either arm. *)
