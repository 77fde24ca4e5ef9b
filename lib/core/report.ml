module Table = Mfb_util.Table
module Stats = Mfb_util.Stats

let imp ~ours ~ba = Stats.percent_improvement ~ours ~baseline:ba

(* Resource-utilization improvement is an increase, not a reduction. *)
let imp_up ~ours ~ba = Stats.percent_increase ~ours ~baseline:ba

let table1 pairs =
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Ops"; "Components";
          "Exec Ours"; "Exec BA"; "Imp(%)";
          "Util Ours"; "Util BA"; "Imp(%)";
          "Chan Ours"; "Chan BA"; "Imp(%)";
          "CPU Ours"; "CPU BA" ]
  in
  Table.set_aligns table
    (Table.Left :: List.init 13 (fun _ -> Table.Right));
  let exec_imps = ref [] and util_imps = ref [] and chan_imps = ref [] in
  List.iter
    (fun ((ours : Result.t), (ba : Result.t)) ->
      let g = ours.schedule.Mfb_schedule.Types.graph in
      let e = imp ~ours:ours.execution_time ~ba:ba.execution_time in
      let u = imp_up ~ours:ours.utilization ~ba:ba.utilization in
      let c = imp ~ours:ours.channel_length_mm ~ba:ba.channel_length_mm in
      exec_imps := e :: !exec_imps;
      util_imps := u :: !util_imps;
      chan_imps := c :: !chan_imps;
      Table.add_row table
        [
          ours.benchmark;
          string_of_int (Mfb_bioassay.Seq_graph.n_ops g);
          Mfb_component.Allocation.to_string
            ours.schedule.Mfb_schedule.Types.allocation;
          Printf.sprintf "%.1f" ours.execution_time;
          Printf.sprintf "%.1f" ba.execution_time;
          Printf.sprintf "%.1f" e;
          Printf.sprintf "%.1f" (100. *. ours.utilization);
          Printf.sprintf "%.1f" (100. *. ba.utilization);
          Printf.sprintf "%.1f" u;
          Printf.sprintf "%.0f" ours.channel_length_mm;
          Printf.sprintf "%.0f" ba.channel_length_mm;
          Printf.sprintf "%.1f" c;
          Printf.sprintf "%.3f" ours.cpu_time;
          Printf.sprintf "%.3f" ba.cpu_time;
        ])
    pairs;
  Table.add_separator table;
  Table.add_row table
    [
      "Average"; "-"; "-"; "-"; "-";
      Printf.sprintf "%.1f" (Stats.mean !exec_imps);
      "-"; "-";
      Printf.sprintf "%.1f" (Stats.mean !util_imps);
      "-"; "-";
      Printf.sprintf "%.1f" (Stats.mean !chan_imps);
      "-"; "-";
    ];
  Table.render table

let bar width value max_value =
  if max_value <= 0. then ""
  else begin
    let n =
      int_of_float (Float.round (float_of_int width *. value /. max_value))
    in
    String.make (max 0 (min width n)) '#'
  end

(* A two-series text bar chart (ours vs BA) of [value] per benchmark. *)
let figure ~title ~unit_label ~value pairs =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  let max_value =
    List.fold_left
      (fun acc (ours, ba) -> Float.max acc (Float.max (value ours) (value ba)))
      0. pairs
  in
  List.iter
    (fun ((ours : Result.t), ba) ->
      let vo = value ours and vb = value ba in
      Buffer.add_string buf
        (Printf.sprintf "  %-11s ours %7.1f %s |%-40s|\n" ours.benchmark vo
           unit_label (bar 40 vo max_value));
      Buffer.add_string buf
        (Printf.sprintf "  %-11s BA   %7.1f %s |%-40s|\n" "" vb unit_label
           (bar 40 vb max_value)))
    pairs;
  Buffer.contents buf

let fig8 pairs =
  figure ~title:"Figure 8: total cache time in flow channels"
    ~unit_label:"s"
    ~value:(fun r -> r.Result.channel_cache_time)
    pairs

let fig9 pairs =
  figure ~title:"Figure 9: total wash time of flow channels"
    ~unit_label:"s"
    ~value:(fun r -> r.Result.channel_wash_time)
    pairs

let timing_table results =
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Flow"; "Stage"; "Wall (s)"; "CPU (s)"; "CPU/Wall" ]
  in
  Table.set_aligns table
    [ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right;
      Table.Right ];
  let row benchmark flow stage ~wall ~cpu =
    Table.add_row table
      [
        benchmark; flow; stage;
        Printf.sprintf "%.3f" wall;
        Printf.sprintf "%.3f" cpu;
        (if wall > 1e-9 then Printf.sprintf "%.2fx" (cpu /. wall) else "-");
      ]
  in
  List.iter
    (fun (r : Result.t) ->
      List.iter
        (fun (st : Result.stage_time) ->
          row r.benchmark r.flow st.stage ~wall:st.wall_s ~cpu:st.cpu_s)
        r.stage_times;
      row r.benchmark r.flow "total" ~wall:r.wall_time ~cpu:r.cpu_time)
    results;
  Table.render table

let metrics_table results =
  let module Telemetry = Mfb_util.Telemetry in
  let table =
    Table.create
      ~headers:[ "Benchmark"; "Flow"; "Category"; "Metric"; "Value" ]
  in
  Table.set_aligns table
    [ Table.Left; Table.Left; Table.Left; Table.Left; Table.Right ];
  List.iter
    (fun (r : Result.t) ->
      List.iter
        (fun (m : Telemetry.metric) ->
          Table.add_row table
            [ r.benchmark; r.flow; m.mcat; m.mname;
              Telemetry.metric_value_string m.mdata ])
        r.metrics)
    results;
  Table.render table

let suite_to_json pairs =
  Mfb_util.Json.List
    (List.concat_map
       (fun (ours, ba) -> [ Result.to_json ours; Result.to_json ba ])
       pairs)
