(** Warm-start synthesis from a near-matching cached result — the
    compute side of the server's similarity cache.

    [synthesize ~config ~cached ~delta graph allocation] synthesizes the
    {e edited} request [(graph, allocation, config)] starting from
    [cached], a full result of a nearby request with the same flow and
    allocation:

    + the {b schedule} stage is the paper flow's own
      ({!Mfb_core.Flow.schedule}; it is placement-independent and cheap
      relative to annealing);
    + the {b placement} is taken verbatim from [cached.chip] — component
      arrays must match structurally, else the warm start aborts;
    + {b routing} replays every cached task whose transport the edit
      left byte-identical (window, endpoints, fluid), re-validating its
      occupancy against the rebuilt grid, and sends invalidated or new
      transports through the cold router's delay ladder under repair's
      policy ({!Mfb_route.Router.route_one} with [First_fit]: in-window,
      a higher delay candidate, then the settle fallback within 16 s);
      extra postponements retime the schedule through
      {!Mfb_core.Flow.retime}, as the cold flow does.

    {2 Proof obligations}

    A warm result is returned only when (a) the retimed schedule passes
    [Check.validate] with zero violations and every transport routed,
    and (b) the makespan is at most [(1 + delta)] times the pre-routing
    schedule makespan.  Since the schedule stage is deterministic and
    shared with the cold flow, and retiming only postpones, the cold
    result's makespan is bounded below by that same pre-routing
    makespan — so (b) certifies [warm <= cold x (1 + delta)] {e without
    running the cold flow}.  Any failure returns [Error reason]; the
    caller falls back to cold synthesis and counts the fallback.

    Deterministic: a pure function of its arguments (no RNG beyond the
    deterministic schedule stage, no clocks in any decision), so warm
    payloads are byte-identical across [--jobs] values and transports.
    A distance-0 replay (identical request, e.g. after a summary-cache
    eviction) reproduces the cached result's summary byte-for-byte. *)

type report = {
  reused : int;            (** cached tasks replayed verbatim *)
  rerouted : int;          (** ladder repairs within the window *)
  rerouted_delayed : int;  (** ladder repairs needing extra delay *)
  makespan_lb : float;
      (** pre-routing schedule makespan — the cold lower bound the
          quality gate compares against *)
  makespan : float;        (** warm result makespan *)
}

val synthesize :
  config:Mfb_core.Config.t ->
  cached:Mfb_core.Result.t ->
  delta:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  (Mfb_core.Result.t * report, string) result
(** Runs under a [warm] telemetry span; bumps [warm/reused],
    [warm/rerouted] and [warm/fallbacks] counters.
    @raise Invalid_argument when [delta < 0]. *)
