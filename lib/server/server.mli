(** The synthesis service: a long-lived process answering
    {!Protocol} requests with content-addressed caching, batched
    dispatch, and admission control.

    {2 Execution model}

    Requests are handled synchronously in input order.  [submit]
    resolves the spec, computes the {!Cache_key}, and either answers
    from the result cache (a {e hit} — the job never enters the queue)
    or enqueues the job under admission control.  Queued jobs run in
    {e batches}: whenever the queue reaches the batch size, or a
    [result] request needs a still-queued job, the server pops up to
    [batch] jobs in dispatch order, drops the ones whose deadline
    expired, deduplicates identical keys, and synthesises the remainder
    on up to [jobs] domains via {!Mfb_util.Pool} — each task itself
    running with [jobs = 1], so pools never nest.  One virtual tick
    elapses per batch; deadlines are measured in ticks, never
    wall-clock.  A job whose synthesis raises is shed alone, with the
    exception text as its reason; the rest of its batch completes and
    caches as usual.

    {2 Determinism}

    For a fixed request script, every response except the [stats] /
    [shutdown] counters is bit-for-bit identical whatever the [jobs]
    value and whatever the cache temperature: result payloads carry only
    the deterministic {!Mfb_core.Result.summary}, batch dispatch order
    is a pure function of (priority, submission order), and the pool
    preserves task order.  Caching is therefore {e transparent} — it can
    only change latency, never a payload.

    {2 Repair}

    A [repair] request names a previously accepted submission and a
    defect set ({!Mfb_repair.Defect.target}s) and answers with the
    {!Mfb_repair.Plan} escalation report.  The server warm-starts from
    the retained full result of the target job when it is still in the
    repair cache (1 virtual tick), or re-synthesizes it first (2 ticks).
    The report bytes are a pure function of (job, defects) — cache
    temperature, [jobs] and transport can only change latency.  A
    surviving repair whose result fails the legality audit
    ({!Mfb_repair.Plan.verify}) is rejected rather than returned.

    {2 Similarity & warm start}

    With [similarity] enabled, every computed job is fingerprinted into
    a {!Sim_index}; a later batch job within [sim_threshold] edit
    distance of a cached one is {e warm-started}
    ({!Mfb_repair.Warm.synthesize}): cached placement reused, intact
    routes replayed, invalidated transports re-routed through the
    repair ladder, with a legality + quality-delta proof obligation and
    cold fallback.  Such a request finishes with outcome ["near-hit"]
    instead of ["done"]; stats gain a ["near"] section and Prometheus
    the [dcsa_near_hits_total] / [dcsa_warm_fallbacks_total] counters
    and [dcsa_warm_latency] histogram, all absent until the first
    near-hit or fallback so similarity-free transcripts keep their
    bytes.  Warm-start decisions and payloads are a pure function of
    the request script: the index stores resolved jobs (never results),
    and an evicted seed is re-synthesized cold, byte-identical to its
    original run. *)

type job = {
  key : Cache_key.t;
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
  config : Mfb_core.Config.t;
  flow : [ `Ours | `Ba ];
  spec : Protocol.spec;            (** original submit spec *)
  overrides : Protocol.overrides;  (** original submit overrides *)
}
(** A fully resolved, validated synthesis job.  [spec] and [overrides]
    are the original wire-level submission, kept so a [dispatch] hook
    can forward the job verbatim to an out-of-process worker which then
    re-resolves it against the same base config. *)

type dispatch_result = {
  d_payload : (Mfb_util.Json.t, string) Stdlib.result;
      (** the summary payload, or why the job's synthesis failed *)
  d_slot : int option;  (** fleet slot that answered; [None] in-process *)
  d_attempts : int;     (** dispatch attempts (1 = first try) *)
  d_spans : Mfb_util.Telemetry.node list;
      (** worker-side span forest shipped back in the reply; grafted
          under the request's compute span in the merged trace *)
}
(** One batch job's answer plus its attribution.  The in-process runner
    returns [{d_slot = None; d_attempts = 1; d_spans = []}], and the
    access log only gains its optional ["fleet"] subobject when a slot
    is present — which is what keeps the log byte-identical between
    transports. *)

type config = {
  jobs : int;            (** worker domains for batch synthesis *)
  cache_capacity : int;  (** LRU entries; [0] disables caching *)
  queue_depth : int;     (** admission-control bound *)
  batch : int;           (** max jobs dispatched per tick *)
  repair_cache : int;
      (** full {!Mfb_core.Result.t}s retained from in-process batch runs
          so [repair] requests can warm-start; [0] disables retention
          (every repair then re-synthesizes its target first).  Kept
          small — a full result holds the routed grid and schedule, not
          just summary scalars. *)
  similarity : bool;
      (** enable the {!Sim_index} similarity cache: a batch job whose
          fingerprint lands within [sim_threshold] of a previously
          computed job is warm-started from that job's full result
          ({!Mfb_repair.Warm}) instead of synthesized cold.  The warm
          payload is deterministic (identical across [jobs] values,
          transports, and fleet-vs-in-process) but generally differs
          from the cold payload — enabling similarity is a quality
          contract ([warm_delta]), not byte-transparent like the exact
          cache, which is why it defaults to off. *)
  sim_threshold : int;
      (** largest {!Sim_index.diff} distance accepted as a near-hit *)
  warm_delta : float;
      (** quality gate: a warm result whose makespan exceeds
          [(1 + warm_delta)] x the cold lower bound is discarded and the
          job re-synthesized cold (counted as a fallback) *)
  flow_config : Mfb_core.Config.t;
      (** base synthesis parameters; [submit] overrides apply on top *)
  dispatch : (job list -> dispatch_result list) option;
      (** replacement batch runner (e.g. a worker fleet): deduplicated
          jobs in dispatch order in, one result per job in the same
          order out.  Payloads must be answer-equivalent to {!run_job} —
          caching and counters assume they are a pure function of the
          job.  [None] (the default) runs batches in-process. *)
  extra_stats : (unit -> (string * Mfb_util.Json.t) list) option;
      (** extra fields appended to {!stats_json} (e.g. fleet counters);
          [None] leaves the stats payload byte-identical to older
          servers. *)
  extra_prometheus : (Buffer.t -> unit) option;
      (** extra series appended to {!prometheus_stats} (e.g. per-slot
          dispatch histograms). *)
  clock : [ `Virtual | `Wall ];
      (** latency-histogram units: [`Virtual] (default) observes batch
          ticks — deterministic; [`Wall] observes wall milliseconds for
          real benchmarking.  Queue-wait is always measured in ticks. *)
  access_log : out_channel option;
      (** when set, one JSONL record per finished request (id, cache key
          prefix, backend, outcome, queue/compute/total latency, fleet
          attribution), flushed per line, written in completion order —
          a pure function of the request script under [`Virtual]. *)
  slow_threshold : float option;
      (** latency (in clock units) at or above which the access-log
          record additionally embeds the request's full span tree. *)
}

val default_config : config
(** [jobs = 1], 128 cache entries, queue depth 64, batch 8, 8 retained
    full results, similarity off (threshold 8, delta 0.25), paper
    parameters, no dispatch hook, no extra stats, virtual clock, no
    access log. *)

type t

val create : config -> t
(** @raise Invalid_argument on non-positive [jobs] or [batch], negative
    [cache_capacity], or [queue_depth < 1]. *)

val resolve :
  base:Mfb_core.Config.t ->
  flow:[ `Ours | `Ba ] ->
  overrides:Protocol.overrides ->
  Protocol.spec ->
  (job, string) result
(** Resolve and validate a submission against [base] config — the same
    path the server takes, exposed so workers resolve identically.
    Refuses an [sa_restarts] override above 64 (each restart is a full
    annealing run on the server; the operator's base config is not
    capped) and flow [`Ba] with an exact/portfolio backend, which only
    replaces the paper's Case-I scheduler. *)

val run_job :
  ?trace:(string * Mfb_util.Telemetry.value) list ->
  job ->
  (Mfb_util.Json.t, string) Stdlib.result
(** Synthesise one job in-process ([jobs = 1]) and return its summary
    payload, or [Error reason] when the synthesis raised — the reason
    ["synthesis failed: <exception>"] its request is shed with.
    Deterministic: equal jobs give byte-equal payloads.
    [trace] wraps the computation in a [request] span carrying the
    given args (request id, cache-key prefix) so per-request
    attribution survives into worker-side traces; it never affects the
    payload. *)

val handle : t -> Protocol.request -> Protocol.response
(** Process one request (advancing queue batches as needed).  [shutdown]
    first drains every queued job — computing or deadline-shedding each
    one — so the {!Protocol.Goodbye} stats are a complete account. *)

val handle_line : t -> string -> string option
(** Parse one input line and answer it serialized; [None] for blank and
    [#]-comment lines.  Never raises on malformed input — parse errors
    come back as an [error] response line. *)

val shutting_down : t -> bool
(** True once a [shutdown] request has been handled. *)

val stats_json : t -> Mfb_util.Json.t
(** Tick count, submissions, computations, cache hit/miss/eviction,
    queue occupancy, shed/rejection counters, rolling latency and
    queue-wait histogram snapshots, and the server config. *)

val prometheus_stats : t -> string
(** Prometheus text exposition of the same counters plus the full
    latency / queue-wait bucket series (and any [extra_prometheus]
    series).  Answers {!Protocol.Stats_prom}. *)

val current_tick : t -> int
(** The virtual batch clock — one tick elapses per dispatched batch.
    Exposed so a CLI can drive a tick-based telemetry sink clock. *)

val latency_histogram : t -> Mfb_util.Histogram.t
(** The rolling total-latency histogram (clock units: ticks under
    [`Virtual], milliseconds under [`Wall]). *)

val queue_wait_histogram : t -> Mfb_util.Histogram.t
(** The rolling queue-wait histogram (always virtual ticks). *)

val repair_latency_histogram : t -> Mfb_util.Histogram.t
(** The rolling repair-latency histogram (clock units).  Under the
    virtual clock a warm-started repair observes 1 tick and a cold one
    (full result re-synthesized first) 2 ticks, so the histogram is a
    deterministic record of cache temperature. *)

val warm_latency_histogram : t -> Mfb_util.Histogram.t
(** The rolling warm-start latency histogram (clock units).  Under the
    virtual clock a near-hit whose seed sat in the repair cache observes
    1 tick, one whose seed had to be cold re-synthesized 2 ticks — the
    same cache-temperature convention as repairs. *)

val near_hit_counts : t -> int * int
(** [(near hits, warm fallbacks)] so far. *)

val serve : ?input:in_channel -> ?output:out_channel -> t -> unit
(** Run the line loop (default stdin/stdout) until [shutdown] or EOF,
    flushing after every response.  Lines are read via
    {!Protocol.input_line_bounded}: an oversized line is consumed whole,
    answered with a structured error, and serving continues; a partial
    final line (no trailing newline) is still handled. *)
