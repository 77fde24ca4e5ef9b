let completion_time (sched : Types.t) = sched.makespan

let busy_time (sched : Types.t) c =
  Array.fold_left
    (fun acc (t : Types.op_times) ->
      if t.component = c then acc +. (t.finish -. t.start) else acc)
    0. sched.times

let resource_utilization (sched : Types.t) =
  let n = Array.length sched.components in
  if n = 0 then 0.
  else begin
    let per_component c =
      let ops = Types.ops_on_component sched c in
      match ops with
      | [] -> 0.
      | (_, first) :: _ ->
        let last =
          List.fold_left
            (fun acc (_, (t : Types.op_times)) -> Float.max acc t.finish)
            first.finish ops
        in
        let active = busy_time sched c in
        let window = last -. first.start in
        if window <= 0. then 0. else active /. window
    in
    let total =
      Array.fold_left (fun acc comp ->
          acc +. per_component comp.Mfb_component.Component.id)
        0. sched.components
    in
    total /. float_of_int n
  end

let total_channel_cache_time (sched : Types.t) =
  List.fold_left
    (fun acc tr -> acc +. Types.transport_cache_time tr)
    0. sched.transports

let total_component_wash_time (sched : Types.t) =
  List.fold_left
    (fun acc (w : Types.wash_event) -> acc +. w.wash_duration)
    0. sched.washes

let concurrency (sched : Types.t) tr =
  let iv = Types.transport_interval tr in
  List.fold_left
    (fun acc other ->
      if other == tr then acc
      else if Mfb_util.Interval.overlaps iv (Types.transport_interval other)
      then acc + 1
      else acc)
    0 sched.transports
