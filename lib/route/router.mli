(** Transportation-conflict-aware routing (paper Alg. 2, lines 9-18).

    Tasks are sorted by start time and routed one after another with the
    weighted, conflict-pruned A* of Eq. 5.  After each task the weights of
    its cells become the wash time of the residue it leaves, steering
    later tasks towards cheap-to-wash (or same-fluid) channels and thereby
    sharing channel segments.  When no conflict-free path exists, the task
    is postponed by the smallest sufficient delay and routed again; the
    resulting per-edge delays can be fed to {!Mfb_schedule.Retime} (they
    are zero in the common case).

    {!route_one} is the one delay ladder: cold synthesis, defect repair
    and warm start all route a transport through it, each under its own
    {!policy}. *)

val route :
  ?weight_update:bool ->
  ?route_io:bool ->
  we:float ->
  tc:float ->
  Mfb_place.Chip.t ->
  Mfb_schedule.Types.t ->
  Routed.result
(** [route ~we ~tc chip sched] routes every transport of [sched] on
    [chip], in {!Routed.start_order}, under the [Cheapest] policy.
    [weight_update] (default true) enables the wash-time weight update;
    disabling it is the A3 ablation.
    @raise Invalid_argument if [we < 0] or [tc <= 0]. *)

(** How {!route_one} walks its delay ladder: the task's own delay, then
    each higher entry of [0, 0.5, 1, 1.5, 2, 3, 4, 6, 8] s. *)
type policy =
  | Cheapest
      (** Cold synthesis: the lowest [path cost + 8 x delay] over every
          candidate, a tie keeping the earlier one.  Once a candidate
          works, the search at each later one stops as soon as no path
          there can beat it ({!Astar.search_multi}'s [cutoff]), which
          changes no choice.  If none works, the shortest
          obstacle-avoiding path is settled at whatever delay clears it;
          if even that fails the task is committed [Unresolved],
          conflicts and all.  Only this policy feeds the router's
          telemetry ([conflict.rejections], [unresolved],
          [astar.task_pops], [task.delay], [task.path_cells],
          [astar.cutoffs]). *)
  | First_fit
      (** Repair and warm start: the first candidate that works.  If none
          does, the settle fallback is accepted up to a 16 s delay;
          beyond that the task is [Unroutable] and nothing is
          committed. *)

type outcome =
  | In_window of Routed.task   (** committed at the requested delay *)
  | Delayed of Routed.task
      (** committed at a later delay: a higher candidate, or a settled
          fallback path *)
  | Unresolved of Routed.task
      (** [Cheapest] only: committed with its conflicts *)
  | Unroutable  (** [First_fit] only: nothing committed *)

val route_one :
  ?weight_update:bool ->
  ?is_defect:(int * int -> bool) ->
  ?kind:Routed.kind ->
  ?delay:float ->
  policy:policy ->
  Rgrid.t ->
  tc:float ->
  Mfb_schedule.Types.transport ->
  outcome
(** [route_one ~policy grid ~tc transport] routes one task of [kind]
    (default [Transport]) between its {!Routed.endpoints}, no earlier
    than [delay] (default 0), avoiding every cell where [is_defect]
    holds (default none), and commits it through
    {!Routed.commit_path}.  [weight_update] (default true) selects the
    weighted cost and the wash-weight update, as in {!route}.
    Deterministic. *)
