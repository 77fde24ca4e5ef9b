(** The paper's top-down synthesis flow: Alg. 1 binding/scheduling, then
    Alg. 2 placement (simulated annealing over Eq. 3) and
    conflict-aware routing, then retiming under any routing
    postponements — and, through the same pipeline, the paper's
    baseline and the ablations EXPERIMENTS.md reports. *)

type variant =
  [ `Ours  (** the paper's flow *)
  | `Ba  (** the paper's baseline: earliest-ready binding, corrected
             scanline placement, construction-by-correction routing *)
  | `No_case1  (** A1: BA's earliest-ready binding inside our flow *)
  | `No_cp  (** A2: plain-wirelength placement energy instead of Eq. 4 *)
  | `No_weights  (** A3: no wash-time weight update in the router *)
  | `Force_directed
    (** A4: {!Mfb_place.Force_place} instead of annealing *)
  | `Negotiated
    (** A5: PathFinder-style {!Mfb_route.Negotiated_router} instead of
        the sequential conflict-pruned A* *) ]
(** A synthesis variant.  Each fixes the flow's four stage choices:
    binding rule, placement energy, placer and router. *)

val variants : variant list
(** The paper flow, A1–A5, then BA — the order of the ablation table. *)

val name : variant -> string
(** The [flow] field of the variant's results: ["ours"], ["ba"],
    ["no-case1"], ["no-cp"], ["no-weights"], ["force-directed"],
    ["negotiated"]. *)

val run :
  ?config:Config.t ->
  ?variant:variant ->
  ?route_io:bool ->
  ?jobs:int ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Result.t
(** [run g alloc] synthesises the full physical design of [variant]
    (default [`Ours]) with the paper's parameters.  [route_io] (default
    false) additionally routes inlet dispensing and waste runs (the I/O
    study).

    [jobs] (default 1) bounds the worker domains used by the parallel
    sections inside the flow (the [config.sa_restarts] annealing
    restarts and the portfolio race).  The synthesis result is
    bit-for-bit identical for every [jobs] value — parallelism follows
    the split-then-reduce determinism rule (see DESIGN.md "Parallel
    execution model").

    The result carries both process CPU time and elapsed wall-clock
    time, plus a per-stage breakdown in [stage_times].
    @raise Invalid_argument on an invalid [config], [jobs < 1], or an
    exact/portfolio backend with a variant that does not use Case-I
    binding ([`Ba], [`No_case1]). *)

(** {2 Stages shared with warm start and repair} *)

val schedule :
  config:Config.t ->
  ?jobs:int ->
  variant ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Mfb_schedule.Types.t * Mfb_schedule.Portfolio.decision option
(** The schedule stage of {!run}: the variant's binding rule under the
    heuristic backend, or the exact / portfolio backend (which replace
    Case-I binding only).  The decision is [None] for the heuristic. *)

val retime :
  Mfb_schedule.Types.t ->
  (Mfb_route.Routed.task * float) list ->
  Mfb_schedule.Types.t
(** [retime sched routed] feeds routing postponements back into
    [sched] through {!Mfb_schedule.Retime}.  Each task comes with the
    delay it had already absorbed ([0.] for a fresh routing): only the
    excess postpones a transport, or — for an inlet dispense — the
    operation it feeds.  Tasks are taken in commit order. *)
