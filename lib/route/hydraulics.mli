(** Hydraulic sanity-check of the constant transport-time abstraction.

    The paper (following Liu et al.) schedules with a user constant [tc]
    for every inter-component transport because channel lengths are
    unknown during scheduling.  After routing the lengths {e are} known,
    so this module closes the loop with a first-order Hagen–Poiseuille
    model: a channel's hydraulic resistance grows linearly with its
    length, and at constant driving pressure the transport time of one
    chamber volume grows with the path's resistance.

    Calibration: the pump pressure is chosen so that a path of 8 cells
    (a typical port-to-port run on the suite's chips) takes exactly
    [tc] — the designer's implied operating point.  Every routed
    transport then gets a {e physical} transport time proportional to
    its cell count, and the report shows how far the [tc] abstraction
    strays on the actual design. *)

type task_check = {
  edge : int * int;
  cells : int;              (** routed path length *)
  physical_time : float;    (** Hagen–Poiseuille transport time *)
  assumed_time : float;     (** the scheduler's [tc] *)
  relative_error : float;   (** [(physical - assumed) / assumed] *)
}

type t = {
  tasks : task_check list;      (** inter-component transports only *)
  worst_underestimate : float;
      (** largest positive relative error: transports that physically
          take longer than the schedule assumed *)
  mean_absolute_error : float;
  pressure_margin : float;
      (** factor by which the pump pressure must rise for every transport
          to finish within [tc] (1.0 when all paths already fit) *)
}

val analyse : tc:float -> Routed.result -> t
