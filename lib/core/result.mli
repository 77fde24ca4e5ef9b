(** End-to-end physical-synthesis result: the quantities reported in the
    paper's Table I and Figs. 8-9 for one benchmark and one flow. *)

type stage_time = {
  stage : string;   (** ["schedule"], ["place"] or ["route"] *)
  wall_s : float;   (** elapsed wall-clock seconds *)
  cpu_s : float;    (** process CPU seconds (summed over all domains) *)
}
(** Per-stage timing sample.  Under [--jobs N] parallelism the CPU time
    exceeds the wall time on a multi-core host; the ratio is the
    effective speedup of the stage. *)

type t = {
  benchmark : string;
  flow : string;                     (** ["ours"] or ["ba"] (or ablations) *)
  schedule : Mfb_schedule.Types.t;   (** final (post-retiming) schedule *)
  chip : Mfb_place.Chip.t;
  routing : Mfb_route.Routed.result;
  execution_time : float;            (** Table I "Execution time (s)" *)
  utilization : float;               (** Table I "Resource utilization", in [0,1] *)
  channel_length_mm : float;         (** Table I "Total channel length (mm)" *)
  channel_cache_time : float;        (** Fig. 8 "total cache time" *)
  channel_wash_time : float;         (** Fig. 9 "total wash time of flow channels" *)
  component_wash_time : float;       (** auxiliary: component washes *)
  cpu_time : float;                  (** Table I "CPU time (s)" *)
  wall_time : float;                 (** elapsed wall-clock time (s) *)
  stage_times : stage_time list;     (** per-stage wall vs CPU breakdown *)
  metrics : Mfb_util.Telemetry.metric list;
  (** telemetry aggregates scoped to this run ([[]] when no sink was
      installed); deterministic — bit-for-bit identical for every
      [--jobs] value, unlike the timing fields *)
  decision : Mfb_schedule.Portfolio.decision option;
  (** how the schedule was obtained when a non-heuristic backend ran
      ([None] for the plain heuristic flow) *)
}

val of_stages :
  benchmark:string ->
  flow:string ->
  cpu_time:float ->
  ?wall_time:float ->
  ?stage_times:stage_time list ->
  ?metrics:Mfb_util.Telemetry.metric list ->
  ?decision:Mfb_schedule.Portfolio.decision ->
  schedule:Mfb_schedule.Types.t ->
  chip:Mfb_place.Chip.t ->
  routing:Mfb_route.Routed.result ->
  unit ->
  t
(** Derive all scalar metrics from the three stage outputs.
    [wall_time] defaults to [cpu_time]; [stage_times] and [metrics] to
    [[]]. *)

val to_json : t -> Mfb_util.Json.t
(** Scalar metrics only (no schedule/layout dump).  Includes a
    ["backend"] object when a non-heuristic backend produced the
    schedule and a ["metrics"] object when telemetry aggregates are
    present. *)

(** {2 Deterministic summary}

    The serving layer caches and replays results, so it needs the
    subset of {!t} that is a pure function of the request — everything
    except the timing fields (which vary run to run) and the heavyweight
    stage outputs. *)

type summary = {
  s_benchmark : string;
  s_flow : string;
  s_execution_time : float;
  s_utilization : float;
  s_channel_length_mm : float;
  s_channel_cache_time : float;
  s_channel_wash_time : float;
  s_component_wash_time : float;
}

val summarize : t -> summary

val summary_to_json : summary -> Mfb_util.Json.t
(** Field names and order match the leading fields of {!to_json}. *)

val pp_summary : Format.formatter -> t -> unit
