(** A* path search on the routing grid (paper Eq. 5).

    The cost of entering a cell is [1 + w(cell)] when weights are enabled
    ([1] otherwise); cells for which [usable] is false are treated as
    infinite-cost (the conflict case of Eq. 5).  The heuristic is the
    Manhattan distance to the nearest target, which is admissible because
    every step costs at least 1. *)

type stats = {
  mutable pops : int;        (** nodes taken off the open queue *)
  mutable pushes : int;      (** nodes inserted into the open queue *)
  mutable expansions : int;  (** nodes closed and expanded *)
}
(** Search-effort accumulator.  The counts are a pure function of the
    grid, endpoints and cost model — no randomness — so they are
    invariant across [--jobs] values. *)

val stats : unit -> stats
(** A zeroed accumulator; pass the same one to several searches to sum
    their effort. *)

val manhattan : int * int -> int * int -> float
(** Manhattan distance between two cells — the per-destination term of
    the heuristic, retained as the differential-testing oracle for
    {!heuristic_field}. *)

val heuristic_field : w:int -> h:int -> (int * int) list -> int array
(** [heuristic_field ~w ~h dsts] is the multi-source BFS distance field
    from [dsts] over the unobstructed [w]×[h] grid, indexed [y*w + x].
    Cell values equal the minimum Manhattan distance to any destination
    (exactly — BFS on an unobstructed 4-connected grid), so the field
    replaces the per-call fold over [dsts] in {!search_multi} without
    changing any f-score.  Unreachable is impossible on a grid; with
    [dsts = []] every cell is [-1].  Each build bumps the
    [route/heuristic_field_builds] telemetry counter's caller. *)

val search_multi :
  ?stats:stats ->
  ?field_cache:((int * int) list, int array) Hashtbl.t ->
  ?extra_cost:(int * int -> float) ->
  Rgrid.t ->
  srcs:(int * int) list ->
  dsts:(int * int) list ->
  usable:(int * int -> bool) ->
  use_weights:bool ->
  (int * int) list option
(** [search_multi grid ~srcs ~dsts ~usable ~use_weights] is a
    minimum-cost path from some usable source to some usable target,
    inclusive of both endpoints; [None] when unreachable.  [extra_cost]
    (default 0) adds a non-negative, finite per-cell surcharge — the
    congestion/history term of negotiated routing.  [usable] must give
    the same answer for a cell throughout one search.

    A reachability flood runs first: breadth-first over the usable
    cells from the sources and from the destinations, one cell per side
    in turn.  If either side runs out of cells before the two meet, the
    answer is [None] and A* never starts — every step costs at least 1
    and is finite, so A* fails exactly then.  Otherwise the flood's
    verdicts on [usable] are kept for the A* that follows, which asks
    [usable] only about cells the flood never reached.  The flood's cell
    visits feed the [route/flood.visits] telemetry counter.

    Only a search that reaches A* counts: [stats] accumulates its
    effort, and it feeds the [route/astar.*] telemetry counters when a
    sink is installed.  The heuristic is evaluated from a BFS distance
    {!heuristic_field} built once per search; [field_cache] (keyed on
    the usable-filtered destination list) lets callers that repeatedly
    search towards the same targets — the router's delay candidates,
    the negotiator's iterations — share one build.  Results are
    identical with or without the cache.

    The search keeps its per-cell state in one scratch per domain,
    grown to the largest grid the domain has searched and kept for the
    domain's life, so a search allocates little beyond its result.  A
    search started from [usable] or [extra_cost] of another search on
    the same domain runs on a scratch of its own. *)

val path_cost : Rgrid.t -> use_weights:bool -> (int * int) list -> float
(** Cost of a path under the same cost model (entering every cell
    including the first). *)
