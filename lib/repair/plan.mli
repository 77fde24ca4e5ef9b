(** Incremental warm-start re-synthesis around chip defects.

    Given a finished synthesis result and a set of {!Defect.target}s,
    [repair] re-plans {e incrementally}: it keeps the schedule, placement
    and every routed task whose path and binding the defects do not
    touch, rips up only the affected tasks (found through the indexed
    routing grid), and escalates through a deterministic ladder until the
    design works again:

    + {e reroute-in-window} — A* re-route on the defect-masked grid with
      the task's original postponement, so the schedule is untouched;
    + {e reroute-with-bounded-delay} — the router's postponement
      candidates above the original delay, then the shortest
      obstacle-avoiding path settled via [required_delay], accepted up
      to a fixed delay budget; extra delays are pushed back through the
      schedule by the cold flow's own stage ({!Mfb_core.Flow.retime}).
      Both rungs are the cold router's own delay ladder,
      {!Mfb_route.Router.route_one} under its [First_fit] policy, with
      the defect cells masked;
    + {e re-bind} — a dead component's operations move to the
      best same-kind spare, ranked by the net-adjacency index
      ([Energy.incident_total]) and accepted only when the remapped
      schedule passes [Check.validate]; the affected transports then
      re-route towards the new ports;
    + {e full re-route fallback} — every task is ripped up and re-routed
      on the defect-masked grid.  (Deliberately {e not} a blind
      [Flow.run]: the cold flow is defect-unaware, so a fresh synthesis
      could land components or channels on the dead cells again.  A
      component fault with no legal spare is reported as failed rather
      than papered over.)

    Everything is deterministic: targets are normalised to a sorted set,
    candidates and tasks are visited in canonical order, and no step
    consults a clock or an RNG — repairing the same result with the same
    defects yields byte-identical reports on every run, every [--jobs]
    value and every transport. *)

type rung =
  | Rerouted          (** all repairs fit the original windows *)
  | Rerouted_delayed  (** some repair needed a bounded extra delay *)
  | Rebound           (** some operation moved to a spare component *)
  | Resynthesized     (** the full re-route fallback ran *)

val rung_name : rung -> string
(** ["reroute"], ["reroute-delayed"], ["rebind"], ["resynthesize"]. *)

type report = {
  targets : Defect.target list;  (** normalised: sorted, deduplicated,
                                     footprint cells lifted to their
                                     owning component *)
  ripped_up : int;       (** tasks whose route was discarded *)
  rerouted : int;        (** repairs that kept the original window *)
  rerouted_delayed : int;(** repairs that needed extra delay *)
  rebound : int;         (** operations moved to a spare component *)
  fallbacks : int;       (** 1 when the full re-route fallback ran *)
  failed : int;          (** tasks (or dead components) left unrepaired *)
  rung : rung option;    (** highest ladder rung exercised; [None] when
                             no task was affected *)
  survived : bool;       (** every affected task repaired *)
  makespan_before : float;
  makespan_after : float;
}

type outcome = {
  report : report;
  schedule : Mfb_schedule.Types.t;  (** retimed / re-bound schedule *)
  chip : Mfb_place.Chip.t;          (** unchanged placement *)
  routing : Mfb_route.Routed.result;
      (** repaired routing; [tasks] are in {e commit order} (healthy
          tasks first, then repairs — or original order after the
          fallback), which is the order {!verify} replays *)
}

val repair :
  config:Mfb_core.Config.t ->
  Mfb_core.Result.t ->
  defects:Defect.target list ->
  outcome
(** Runs under a [repair] telemetry span and bumps the
    [repair/ripped_up], [repair/rerouted], [repair/rebound] and
    [repair/fallbacks] counters. *)

val verify :
  config:Mfb_core.Config.t ->
  defects:Defect.target list ->
  outcome ->
  string list
(** Legality audit of a repaired outcome; empty means clean.  Checks the
    schedule ([Check.validate]), defect avoidance (no path crosses a
    defective cell, no binding or transport touches a dead component)
    and the routing's conflict discipline (replaying the commit order on
    a fresh grid, every occupation must be [conflict_free] — the wash
    separation included — before it is added).  A [survived] repair must
    verify clean; a failed one generally will not, since unrepairable
    transports are dropped from the routing while the schedule keeps
    them. *)

val report_to_json : report -> Mfb_util.Json.t
(** Stable field order; the byte-compared payload of the serve
    protocol's repair reply and the CLI's [--json] output. *)

(** {2 Single-defect yield} *)

type yield_report = {
  cells_tested : int;   (** used channel cells of the design *)
  survived : int;
  yield : float;        (** [survived / cells_tested]; 1.0 for none *)
  worst : ((int * int) * report) option;
      (** the first cell, in row-major order, that the design does not
          survive, with its repair report *)
}

val single_defect_yield :
  config:Mfb_core.Config.t -> Mfb_core.Result.t -> yield_report
(** Fails every used channel cell in turn, in row-major order, through
    [repair ~defects:[Cell c]].  The design survives a cell when the
    report is [survived] at rung [None] or [Rerouted]: every ripped-up
    task re-routed in its own window, the schedule untouched.  This is
    the robustness figure EXPERIMENTS.md quotes. *)
