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

val search_multi :
  ?stats:stats ->
  ?extra_cost:(int * int -> float) ->
  ?cutoff:float ->
  Rgrid.t ->
  srcs:(int * int) list ->
  dsts:(int * int) list ->
  usable:(int -> bool) ->
  use_weights:bool ->
  (int * int) list option
(** [search_multi grid ~srcs ~dsts ~usable ~use_weights] is a
    minimum-cost path from some usable source to some usable target,
    inclusive of both endpoints; [None] when unreachable.  [usable] judges
    a cell by its index [y * width + x]; it must give the same answer for
    a cell throughout one search, and it is asked at most once per cell.
    [extra_cost] (default 0) adds a non-negative, finite per-cell
    surcharge — the congestion/history term of negotiated routing.

    [cutoff] (default [infinity]) bounds the answer: the search is
    [None] as soon as the least f-score on the open list is at least
    [cutoff].  So it answers exactly as the uncut search when that
    search's path costs less than [cutoff] (its cost counting the
    surcharge), and [None] otherwise.  This needs every step to cost at
    least 1, so that the heuristic is consistent and keys never fall
    along the pop order; a non-negative [extra_cost] keeps that.  A
    destination's heuristic is 0, so a path's cost is its key when it
    pops; without a surcharge that key is {!path_cost} of the path,
    summed in the same order.  A search the cutoff ends feeds the
    [route/astar.cutoffs] telemetry counter.

    The heuristic is the least Manhattan distance to a usable
    destination, evaluated when a cell is pushed.  Alongside A*, a flood
    spreads breadth-first over the usable cells from the destinations,
    one cell per A* pop, until it reaches a cell A* has given a g-value.
    Every step costs at least 1 and is finite, so a path exists exactly
    when the two meet: a flood that runs dry first answers [None] at
    once, as does an empty open list.  The flood never changes A*'s pop
    order, so the path is the one A* alone would find.  Its cell visits,
    at most one per pop, feed the [route/flood.visits] telemetry
    counter.

    Every search whose endpoints include a usable source and a usable
    destination counts: [stats] accumulates its effort, and it feeds the
    [route/astar.*] telemetry counters when a sink is installed.

    The search keeps its per-cell state in one scratch per domain,
    grown to the largest grid the domain has searched and kept for the
    domain's life, so a search allocates little beyond its result.  A
    search started from [usable] or [extra_cost] of another search on
    the same domain runs on a scratch of its own. *)

val path_cost : Rgrid.t -> use_weights:bool -> (int * int) list -> float
(** Cost of a path under the same cost model (entering every cell
    including the first). *)
