(** Deterministic Domain-based worker pool.

    The synthesis flow is embarrassingly parallel at several levels
    (scheduling restarts, annealing restarts, independent benchmark
    instances).  This pool fans such tasks out over OCaml 5 domains while
    keeping the *results* bit-for-bit independent of the worker count:

    - every task writes its result into the slot of its own input index,
      so output order never depends on completion order;
    - tasks must not share mutable state (the synthesis callers split
      their RNG into per-task generators {e before} dispatch — see
      {!Rng.split_n});
    - exceptions are collected per task and the one belonging to the
      {e lowest} task index is re-raised after all workers have drained,
      so failure behaviour is deterministic too.

    With [jobs = 1] (the library default) no domain is spawned and tasks
    run sequentially in the calling domain — the fallback path used by
    tests and by callers that already sit inside a worker domain
    (domains must not be nested carelessly).

    When a {!Telemetry} sink is installed, every task runs under its own
    child collector (track = task index, captured from the dispatching
    collector before any domain spawns) wrapped in a [label] span, and
    each worker domain gets a busy span on its own track.  The task
    wrapper applies on the [jobs = 1] fast path too, so the collector
    tree — and every metric merged from it — is identical for all [jobs]
    values. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped to [[1, 8]] — the
    default worker count used by the CLI and the bench harness. *)

val init : ?label:string -> ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] evaluated by up to [jobs]
    domains (the calling domain included).  Tasks are handed out through
    an atomic cursor; [f] must therefore be safe to call concurrently on
    distinct indices.  Result slot [i] always holds [f i].  [label]
    (default ["task"]) names the per-task telemetry spans.

    Degenerate inputs never overshoot: exactly
    [min (jobs - 1) (n - 1)] helper domains are spawned, so [jobs]
    larger than the task count costs nothing beyond the tasks
    themselves.  [n = 0] returns [[||]] immediately — no domain is
    spawned and no telemetry collector or span is created — and [n = 1]
    (like [jobs = 1]) takes the sequential fast path on the calling
    domain.  On that fast path the task-collector tree (and therefore
    every merged metric) is identical to a [jobs = 1] run; only worker
    busy-tracks are absent, as no worker domain exists.
    @raise Invalid_argument if [jobs < 1] or [n < 0]. *)

val map : ?label:string -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] preserves the order of [xs] regardless of [jobs].
    Exceptions raised by [f] propagate; when several tasks fail, the one
    closest to the head of [xs] wins, whatever domain it ran on. *)
