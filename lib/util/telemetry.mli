(** Structured tracing and metrics for the synthesis flow.

    The design constraint inherited from the parallel engine is that
    telemetry must never perturb the synthesis result: instrumentation
    only reads algorithm state, every collector is owned by exactly one
    domain, and collectors merge in a deterministic order (their track
    paths), so metrics folded into [Result.to_json] are bit-for-bit
    identical for every [--jobs] value.

    The subsystem is inert until a {!sink} is {!install}ed; with no sink
    every probe is a single atomic load and a branch. *)

(** {1 Events and aggregates} *)

type value = Int of int | Float of float | Str of string | Bool of bool
(** Argument payload attached to spans. *)

type phase =
  | Complete of float  (** closed span; payload is the duration in µs *)
  | Sample of float    (** one point of a counter time-series *)

type event = {
  track : int list;  (** collector path — see {!section-determinism} *)
  seq : int;         (** per-collector emission index *)
  ts_us : float;     (** µs since the sink's epoch *)
  cat : string;
  name : string;
  ph : phase;
  depth : int;       (** span-stack depth at emission *)
  args : (string * value) list;
}

type summary = { count : int; sum : float; min : float; max : float }
(** Histogram digest; [min]/[max] are [nan] when [count = 0]. *)

type data = Counter of int | Histogram of summary

type metric = { mcat : string; mname : string; mdata : data }

(** {1 Sinks and installation} *)

type sink
(** An in-memory event store shared by every collector of one telemetry
    session.  Collector registration is mutex-protected; event emission
    itself is unsynchronised because each collector is domain-local. *)

val make_sink : ?clock:(unit -> float) -> unit -> sink
(** [make_sink ()] is an empty sink whose epoch is [clock ()] (default:
    [Unix.gettimeofday]).  Inject a fake [clock] for deterministic
    timestamps in tests. *)

val install : sink -> unit
(** Make [sink] the process-wide telemetry target and give the calling
    domain a root collector (track path [[0]]).  Call once, before any
    worker domain is spawned. *)

val uninstall : unit -> unit
(** Drop the installed sink; probes become no-ops again. *)

val active : unit -> bool
(** Whether a sink is installed. *)

val installed_sink : unit -> sink option

val set_span_hook :
  ([ `Open | `Close ] -> depth:int -> string -> unit) option -> unit
(** Observer invoked synchronously at every span open/close on any
    domain (the CLI wires this to [Logs.debug] under [-v]).  The hook
    must be domain-safe. *)

(** {1 Probes}

    All probes are no-ops when no sink is installed or the current
    domain has no collector. *)

val span : ?cat:string -> ?args:(string * value) list -> string ->
  (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a named span; the span closes (and is
    emitted) even if [f] raises.  Spans nest: [depth] records the stack
    depth at open. *)

val incr : ?cat:string -> ?by:int -> string -> unit
(** Bump an aggregate counter.  Totals merge by summation, so they are
    independent of domain interleaving. *)

val sample : ?cat:string -> string -> float -> unit
(** Emit one point of a counter time-series (Chrome ["C"] event).
    Trace-only; does not feed the metric aggregates. *)

val observe : ?cat:string -> string -> float -> unit
(** Feed one observation into a histogram aggregate. *)

(** {1:determinism Task and worker contexts}

    [Pool] threads telemetry through its fan-out with these: the parent
    collector is captured {e at dispatch}, each task [i] then runs under
    a child collector with track path [parent @ [i]] regardless of which
    domain executes it.  Merging sorts by path, so aggregate folding —
    float summation included — associates identically for every [jobs]
    value. *)

type context
(** A dispatch-time capture of the current collector (or of its
    absence). *)

val task_context : unit -> context
(** [task_context ()] captures the calling domain's collector; returns
    an inert context when telemetry is off (in which case the wrappers
    below are identity). *)

val is_live : context -> bool

val in_task : context -> label:string -> int -> (unit -> 'a) -> 'a
(** [in_task ctx ~label i f] runs [f] under a fresh child collector for
    task [i] of [ctx], wrapped in a span [label] (cat ["task"]) tagged
    with the executing domain id. *)

val in_worker : context -> index:int -> (unit -> 'a) -> 'a
(** [in_worker ctx ~index f] runs a pool worker loop [f] under a
    per-worker collector (negative track branch [-1 - index]) inside a
    busy-span ["worker"] (cat ["pool"]). *)

val with_scope : string -> (unit -> 'a) -> 'a * metric list
(** [with_scope name f] runs [f] under a fresh child collector and
    returns the metrics recorded by it and every descendant collector
    created during [f] (e.g. pool tasks), merged in track order and
    sorted by (cat, name).  [(f (), [])] when telemetry is off. *)

(** {1 Request subtracks}

    The serving tier gives every accepted request its own child
    collector — a {e subtrack} — so lifecycle events of concurrent
    requests never interleave on one track and each request renders as
    one row of the trace (one merged distributed trace per request). *)

type subtrack
(** A per-request child collector that outlives the call that created
    it; emissions are routed onto it with {!on_subtrack}. *)

val subtrack : string -> subtrack option
(** [subtrack name] creates a child collector of the calling domain's
    collector (branch-disjoint from pool task indices); [None] when
    telemetry is off. *)

val on_subtrack : subtrack option -> (unit -> 'a) -> 'a
(** [on_subtrack st f] runs [f] with the subtrack as the current
    collector, so {!span}/{!emit_node} land on
    the request's track; identity when [st] is [None]. *)

(** {1 Span trees}

    A [node] is one span plus its children — the shippable form of a
    trace.  Workers export their per-request sink as a node forest, the
    reply carries it as JSON, and the supervisor re-emits it under the
    request's subtrack, so the serving sink ends up holding one merged
    distributed trace. *)

type node = {
  n_name : string;
  n_cat : string;
  n_args : (string * value) list;
  n_dur_us : float;
  n_children : node list;
}

val spans : ?max_depth:int -> sink -> node list
(** Reconstruct the span forest of [sink]: collectors in track order,
    each collector's root spans in emission order.  [max_depth] prunes
    children deeper than that many levels below a root (children of
    pruned nodes are dropped, durations kept). *)

val node_to_json : node -> Json.t
val node_of_json : Json.t -> (node, string) result

val emit_node : node -> unit
(** Re-emit a node tree as Complete events on the current collector at
    the current depth and timestamp (children first, parent last, as a
    live run would have closed them).  No-op when telemetry is off. *)

val to_folded : sink -> string
(** Folded-stack export (flamegraph input): one
    ["track;span;subspan value"] line per distinct stack, stacks
    prefixed with the collector's ancestry chain of track names,
    values the {e exclusive} span time in µs (clamped to at least 1 so
    virtual-clock traces — where every duration is 0 — still render
    their structure).  Lines are sorted, so the export is a pure
    function of the event tree. *)

(** {1 Export} *)

val events : sink -> event list
(** All events, collectors in track order, each collector's events in
    emission order. *)

val metrics : sink -> metric list
(** Whole-sink aggregate merge, sorted by (cat, name). *)

val counter_total : sink -> cat:string -> string -> int
(** Summed value of the named counter across every collector in the
    sink; [0] when the counter was never bumped. *)

val to_chrome_json : ?process_name:string -> sink -> Json.t
(** Chrome [trace_event] JSON (the [{"traceEvents": [...]}] object
    form), loadable in Perfetto / [chrome://tracing].  Track paths are
    mapped to dense [tid]s in track order and named via ["thread_name"]
    metadata events. *)

val metrics_to_json : metric list -> Json.t
val metric_value_string : data -> string
(** Compact rendering for tables: ["1234"] or
    ["n=88 mean=12.4 min=3 max=40"]. *)
