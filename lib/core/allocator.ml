module Allocation = Mfb_component.Allocation

type point = {
  allocation : Allocation.t;
  components : int;
  completion_time : float;
  utilization : float;
}

let explore ?(tc = Config.default.tc) ?(max_per_kind = 8) graph =
  if max_per_kind < 1 then invalid_arg "Allocator.explore: max_per_kind < 1";
  let counts = Mfb_bioassay.Seq_graph.kind_counts graph in
  let range i =
    if counts.(i) = 0 then [ 0 ]
    else List.init (min max_per_kind counts.(i)) (fun k -> k + 1)
  in
  let candidates =
    List.concat_map
      (fun m ->
        List.concat_map
          (fun h ->
            List.concat_map
              (fun f ->
                List.map (fun d -> (m, h, f, d)) (range 3))
              (range 2))
          (range 1))
      (range 0)
  in
  let evaluate vector =
    let allocation = Allocation.of_vector vector in
    let sched = Mfb_schedule.Engine.run ~case1:true ~tc graph allocation in
    {
      allocation;
      components = Allocation.total allocation;
      completion_time = sched.makespan;
      utilization = Mfb_schedule.Metrics.resource_utilization sched;
    }
  in
  let points = List.map evaluate candidates in
  (* One representative per component count (the fastest; ties broken by
     evaluation order), then the strict Pareto staircase: keep a size only
     when it beats every smaller size. *)
  let best_per_size = Hashtbl.create 16 in
  List.iter
    (fun p ->
      match Hashtbl.find_opt best_per_size p.components with
      | Some q when q.completion_time <= p.completion_time +. 1e-9 -> ()
      | Some _ | None -> Hashtbl.replace best_per_size p.components p)
    points;
  let by_size =
    Hashtbl.fold (fun _ p acc -> p :: acc) best_per_size []
    |> List.sort (fun a b -> compare a.components b.components)
  in
  let _, frontier =
    List.fold_left
      (fun (best_time, acc) p ->
        if p.completion_time < best_time -. 1e-9 then
          (p.completion_time, p :: acc)
        else (best_time, acc))
      (infinity, []) by_size
  in
  List.rev frontier

let knee = function
  | [] -> None
  | frontier ->
    let fastest =
      List.fold_left
        (fun acc p -> Float.min acc p.completion_time)
        infinity frontier
    in
    List.find_opt
      (fun p -> p.completion_time <= fastest *. 1.05)
      frontier
