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

(** {2 The hold rule}

    One rule says how long a transport holds each cell of its path
    (paper §II-A: a fluid evicted from its producing component is cached
    in the channel cell just outside it).  The commit side
    ({!occupancy}), the path search ({!usable}) and the settle step
    ({!settle_delay}) all ask {!hold}. *)

type role =
  | Port of { tc : float }
      (** the source port, held from removal while the fluid is pushed
          out ([tc] long) *)
  | Park  (** the parking cell next to it, held from removal to arrival *)
  | Sweep (** every cell further on, held only for the final sweep *)

val hold :
  Mfb_schedule.Types.transport -> delay:float -> role -> Mfb_util.Interval.t
(** [hold transport ~delay role] is the interval a cell of that role
    holds the transport's fluid once it is postponed by [delay].  A
    transport that caches its fluid for at most {!Rgrid.tolerance} holds
    every cell over its whole window, [removal] to [arrive]. *)

val occupancy :
  tc:float -> task -> ((int * int) * Mfb_util.Interval.t) list
(** Cell-level occupation of a routed task, {!hold} at each cell's role:
    the first path cell is the [Port], the second the [Park] cell and
    every later one a [Sweep] cell; every cell of a path of at most two
    cells is a [Park] cell. *)

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

val usable :
  Rgrid.t ->
  Mfb_schedule.Types.transport ->
  delay:float ->
  src_ports:(int * int) list ->
  int ->
  bool
(** [usable grid transport ~delay ~src_ports] is the cell-usability
    predicate for path search, by cell index [y * width + x].  A cell
    within Manhattan distance 1 of some source port may be the path's
    port or parking cell, so it must be free for the [Park] hold (the
    longer of the two); every other cell for the [Sweep] hold.  Both
    holds are built once, when the predicate is; apply it partially and
    test many cells with it.  A verdict allocates nothing. *)

val settle_delay :
  ?from:float ->
  Rgrid.t ->
  Mfb_schedule.Types.transport ->
  src_ports:(int * int) list ->
  (int * int) list ->
  float option
(** Smallest postponement of at least [from] (default 0) making the
    whole path conflict-free on every cell, each asked for the hold
    {!usable} asks it for, or [None] when no fixed point is found within
    the iteration budget. *)

val finalize : Rgrid.t -> task list -> unresolved:int -> result
