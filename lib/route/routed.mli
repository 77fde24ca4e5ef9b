(** Shared result types and helpers of every router: task endpoints, the
    routing order, occupancy, commits and conflict predicates. *)

type kind =
  | Transport  (** a scheduled component-to-component transport *)
  | Dispense   (** input fluid from a chip-border inlet to a component *)
  | Waste      (** final product from a component to a border outlet *)

type task = {
  transport : Mfb_schedule.Types.transport;
      (** for [Dispense]/[Waste] this is a pseudo-transport describing the
          window and fluid; its [src]/[dst] both name the component *)
  kind : kind;
  path : (int * int) list;  (** endpoint-to-endpoint, inclusive; never empty *)
  delay : float;            (** postponement applied to the transport *)
  pre_wash : float;
      (** buffer-flush time needed before this task: the largest
          different-fluid residue wash along its path (Fig. 9 quantity) *)
  washed_cells : int;       (** cells of the path that needed washing *)
}

type result = {
  tasks : task list;                (** in routing order *)
  grid : Rgrid.t;                   (** final grid state *)
  total_channel_length_mm : float;
      (** distinct used cells x the 10 mm cell pitch *)
  total_channel_wash : float;       (** sum of [pre_wash] *)
  total_delay : float;              (** sum of postponements *)
  unresolved : int;                 (** tasks left with conflicts *)
}

val occupancy :
  tc:float -> task -> ((int * int) * Mfb_util.Interval.t) list
(** Cell-level occupation of a routed task.  Without channel caching every
    path cell is occupied over the whole (shifted) transport window; with
    caching the fluid parks in the channel cell adjacent to the source
    port (paper §II-A: fluids are cached close to components — the evicted
    fluid is pushed just outside its producing component), so downstream
    cells are only held for the final [tc]-long sweep. *)

val commit : ?weight_update:bool -> Rgrid.t -> tc:float -> task -> unit
(** Record the task's occupations; with [weight_update] (default true)
    every path cell's weight becomes the wash time of the residue the
    task leaves (paper §IV-B2). *)

val commit_path :
  ?weight_update:bool ->
  Rgrid.t ->
  tc:float ->
  kind ->
  Mfb_schedule.Types.transport ->
  path:(int * int) list ->
  delay:float ->
  task
(** [commit_path grid ~tc kind transport ~path ~delay] builds the task,
    measures its [pre_wash] and [washed_cells] against the grid as it
    stands, then {!commit}s it; returns the measured task.  Every router
    records a freshly routed path through this one function. *)

val start_order : Mfb_schedule.Types.t -> Mfb_schedule.Types.transport list
(** The schedule's transports in routing order: by removal time, ties
    broken by departure time (paper Alg. 2 routes in start order). *)

val border_cells : Rgrid.t -> (int * int) list
(** The unblocked chip-edge cells, where reservoirs and outlets attach:
    the top and bottom rows, then the left and right columns, so each
    unblocked corner is listed twice. *)

val endpoints :
  Rgrid.t ->
  kind ->
  Mfb_schedule.Types.transport ->
  (int * int) list * (int * int) list
(** [(sources, destinations)] of a task's path search: component ports
    for a [Transport]; the unblocked chip-edge cells (where reservoirs
    and outlets attach) stand in for the inlet of a [Dispense] and the
    outlet of a [Waste] run. *)

val window :
  Mfb_schedule.Types.transport ->
  delay:float ->
  near_src:bool ->
  Mfb_util.Interval.t
(** Occupation window a cell must be free for, matching {!occupancy}:
    a cell near the source port may hold the cached fluid for the whole
    (shifted) transport window; a cell further out only sees the final
    arrival sweep. *)

val usable :
  Rgrid.t ->
  Mfb_schedule.Types.transport ->
  delay:float ->
  src_ports:(int * int) list ->
  int ->
  bool
(** [usable grid transport ~delay ~src_ports] is the cell-usability
    predicate for path search, by cell index [y * width + x], consistent
    with the occupation that {!commit} will record ("near source" means
    Manhattan distance at most 1 from some source port).  Both
    {!window}s are built once, when the predicate is; apply it partially
    and test many cells with it.  A verdict allocates nothing. *)

val settle_delay :
  ?from:float ->
  Rgrid.t ->
  Mfb_schedule.Types.transport ->
  src_ports:(int * int) list ->
  (int * int) list ->
  float option
(** Smallest postponement of at least [from] (default 0) making the
    whole path conflict-free on every cell under the {!window}
    semantics, or [None] when no fixed point is found within the
    iteration budget. *)

val finalize : Rgrid.t -> task list -> unresolved:int -> result
