let reference_cells = 8

type task_check = {
  edge : int * int;
  cells : int;
  physical_time : float;
  assumed_time : float;
  relative_error : float;
}

type t = {
  tasks : task_check list;
  worst_underestimate : float;
  mean_absolute_error : float;
  pressure_margin : float;
}

let analyse ~tc (routing : Routed.result) =
  if tc <= 0. then invalid_arg "Hydraulics.analyse: tc must be positive";
  (* Time per cell at the calibrated pressure. *)
  let per_cell = tc /. float_of_int reference_cells in
  let tasks =
    List.filter_map
      (fun (task : Routed.task) ->
        match task.kind with
        | Routed.Dispense | Routed.Waste -> None
        | Routed.Transport ->
          let cells = List.length task.path in
          let physical_time = per_cell *. float_of_int cells in
          Some
            {
              edge = task.transport.Mfb_schedule.Types.edge;
              cells;
              physical_time;
              assumed_time = tc;
              relative_error = (physical_time -. tc) /. tc;
            })
      routing.tasks
  in
  let worst_underestimate =
    List.fold_left (fun acc t -> Float.max acc t.relative_error) 0. tasks
  in
  let mean_absolute_error =
    Mfb_util.Stats.mean
      (List.map (fun t -> Float.abs t.relative_error) tasks)
  in
  (* Pressure scales flow linearly in the laminar regime, so making the
     longest path fit within tc needs pressure x (longest / reference). *)
  let longest =
    List.fold_left (fun acc t -> max acc t.cells) reference_cells tasks
  in
  {
    tasks;
    worst_underestimate;
    mean_absolute_error;
    pressure_margin = float_of_int longest /. float_of_int reference_cells;
  }
