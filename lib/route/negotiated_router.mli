(** Negotiated-congestion routing (PathFinder-style), as an alternative to
    the paper's sequential conflict-pruned router.

    All transports are re-routed together for several iterations.  Inside
    an iteration every task takes its cheapest path, where a cell's cost
    is the usual weighted cost plus a {e present-sharing} penalty (other
    tasks of this iteration already occupying it during an overlapping
    window) and an accumulating {e history} penalty for cells that keep
    being fought over.  Tasks negotiate: persistent losers detour,
    persistent winners keep the short path.  Any conflicts left after the
    iteration budget are resolved by postponement, like the sequential
    router. *)

val route :
  ?weight_update:bool ->
  ?route_io:bool ->
  we:float ->
  tc:float ->
  Mfb_place.Chip.t ->
  Mfb_schedule.Types.t ->
  Routed.result
(** [route ~we ~tc chip sched] negotiates for up to 8 rounds.
    [weight_update] (default true) applies the paper's wash-weight
    update when committing the final paths.
    @raise Invalid_argument if [tc <= 0] or [we < 0]. *)
