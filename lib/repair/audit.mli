(** The legality audit of a synthesised design: one checker for timing,
    geometry, defect avoidance and routing conflicts.

    [check ~config ?defects schedule chip routing] lists every violation
    it finds, each prefixed with its part; empty means clean:

    - ["schedule:CODE: ..."]: {!Mfb_schedule.Check.validate} on the
      schedule at [config.tc];
    - ["geometry:RULE: ..."]: {!Mfb_route.Drc.check} on the chip and
      routing;
    - ["binding: ..."]: an operation still bound to a dead component;
    - ["routing: ..."]: a task attached to a dead component, a path over
      a defective cell, or an occupation conflict.

    The conflict part replays [routing.tasks] in their order, which must
    be commit order, on a fresh grid: each task's occupations
    ({!Mfb_route.Routed.occupancy}, the router's own hold rule) must pass
    {!Mfb_route.Rgrid.conflict_free_ref} (no overlap, and the wash
    separation after a different fluid) before they are added.  So the
    audit asks the reference fold, not the index the router searched.

    [defects] (default none) are read through {!Defect.normalize}.  A
    surviving repair ({!Plan.repair}) must audit clean; a failed one
    generally will not, since unrepairable transports are dropped from
    the routing while the schedule keeps them. *)

val check :
  config:Mfb_core.Config.t ->
  ?defects:Defect.target list ->
  Mfb_schedule.Types.t ->
  Mfb_place.Chip.t ->
  Mfb_route.Routed.result ->
  string list
