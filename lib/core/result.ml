module Metrics = Mfb_schedule.Metrics

type stage_time = { stage : string; wall_s : float; cpu_s : float }

type t = {
  benchmark : string;
  flow : string;
  schedule : Mfb_schedule.Types.t;
  chip : Mfb_place.Chip.t;
  routing : Mfb_route.Routed.result;
  execution_time : float;
  utilization : float;
  channel_length_mm : float;
  channel_cache_time : float;
  channel_wash_time : float;
  component_wash_time : float;
  cpu_time : float;
  wall_time : float;
  stage_times : stage_time list;
  metrics : Mfb_util.Telemetry.metric list;
  decision : Mfb_schedule.Portfolio.decision option;
}

let of_stages ~benchmark ~flow ~cpu_time ?wall_time ?(stage_times = [])
    ?(metrics = []) ?decision ~schedule ~chip ~routing () =
  {
    benchmark; flow; schedule; chip; routing;
    execution_time = Metrics.completion_time schedule;
    utilization = Metrics.resource_utilization schedule;
    channel_length_mm = routing.Mfb_route.Routed.total_channel_length_mm;
    channel_cache_time = Metrics.total_channel_cache_time schedule;
    channel_wash_time = routing.Mfb_route.Routed.total_channel_wash;
    component_wash_time = Metrics.total_component_wash_time schedule;
    cpu_time;
    wall_time = Option.value wall_time ~default:cpu_time;
    stage_times;
    metrics;
    decision;
  }

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

let summarize r =
  {
    s_benchmark = r.benchmark;
    s_flow = r.flow;
    s_execution_time = r.execution_time;
    s_utilization = r.utilization;
    s_channel_length_mm = r.channel_length_mm;
    s_channel_cache_time = r.channel_cache_time;
    s_channel_wash_time = r.channel_wash_time;
    s_component_wash_time = r.component_wash_time;
  }

let summary_to_json s =
  Mfb_util.Json.Obj
    [
      ("benchmark", Mfb_util.Json.String s.s_benchmark);
      ("flow", Mfb_util.Json.String s.s_flow);
      ("execution_time_s", Mfb_util.Json.Float s.s_execution_time);
      ("utilization", Mfb_util.Json.Float s.s_utilization);
      ("channel_length_mm", Mfb_util.Json.Float s.s_channel_length_mm);
      ("channel_cache_time_s", Mfb_util.Json.Float s.s_channel_cache_time);
      ("channel_wash_time_s", Mfb_util.Json.Float s.s_channel_wash_time);
      ("component_wash_time_s", Mfb_util.Json.Float s.s_component_wash_time);
    ]

let to_json r =
  let summary_fields =
    match summary_to_json (summarize r) with
    | Mfb_util.Json.Obj fields -> fields
    | _ -> assert false
  in
  Mfb_util.Json.Obj
    (summary_fields
    @ [
        ("cpu_time_s", Mfb_util.Json.Float r.cpu_time);
        ("wall_time_s", Mfb_util.Json.Float r.wall_time);
      ]
    (* The backend decision, like the summary fields, is deterministic;
       it is absent for the heuristic backend so that heuristic output
       stays byte-identical to pre-backend versions. *)
    @ (match r.decision with
      | None -> []
      | Some d ->
        [ ("backend", Mfb_schedule.Portfolio.decision_to_json d) ])
    @
    (* Telemetry aggregates are deterministic (jobs-invariant), unlike
       the timing fields above; present only when a sink was live. *)
    if r.metrics = [] then []
    else [ ("metrics", Mfb_util.Telemetry.metrics_to_json r.metrics) ])

let pp_summary ppf r =
  Format.fprintf ppf
    "%s/%s: exec=%.1fs util=%.1f%% channel=%.0fmm cache=%.1fs wash=%.1fs cpu=%.3fs"
    r.benchmark r.flow r.execution_time (100. *. r.utilization)
    r.channel_length_mm r.channel_cache_time r.channel_wash_time r.cpu_time
