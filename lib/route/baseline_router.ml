module Types = Mfb_schedule.Types

let correct_task grid (tr : Types.transport) initial_path =
  let srcs = Rgrid.ports grid tr.src and dsts = Rgrid.ports grid tr.dst in
  let usable = Routed.usable grid tr ~delay:0. ~src_ports:srcs in
  let w = Rgrid.width grid in
  if List.for_all (fun (x, y) -> usable ((y * w) + x)) initial_path then
    (initial_path, 0., false)
  else begin
    (* Correction step 1: conflict-aware re-route (unweighted cost). *)
    match Astar.search_multi grid ~srcs ~dsts ~usable ~use_weights:false with
    | Some path -> (path, 0., false)
    | None ->
      (* Correction step 2: postpone along the original path. *)
      (match Routed.settle_delay grid tr ~src_ports:srcs initial_path with
       | Some delay -> (initial_path, delay, false)
       | None -> (initial_path, 0., true))
  end

let route ?(route_io = false) ~we ~tc chip (sched : Types.t) =
  if tc <= 0. then invalid_arg "Baseline_router.route: tc must be positive";
  let grid = Rgrid.create ~we chip in
  let transports = Routed.start_order sched in
  (* Construction: conflict-oblivious shortest paths. *)
  let initial =
    List.map
      (fun (tr : Types.transport) ->
        let srcs = Rgrid.ports grid tr.src and dsts = Rgrid.ports grid tr.dst in
        let usable i = not (Rgrid.blocked_at grid i) in
        let path =
          match
            Astar.search_multi grid ~srcs ~dsts ~usable ~use_weights:false
          with
          | Some p -> p
          | None -> [ List.hd srcs; List.hd dsts ]
        in
        (tr, path))
      transports
  in
  (* Correction: sequential repair against committed occupations. *)
  let tasks, unresolved =
    List.fold_left
      (fun (tasks, unresolved) (tr, initial_path) ->
        let path, delay, failed = correct_task grid tr initial_path in
        let task =
          Routed.commit_path ~weight_update:false grid ~tc Routed.Transport tr
            ~path ~delay
        in
        (task :: tasks, if failed then unresolved + 1 else unresolved))
      ([], 0) initial
  in
  Io_router.finalize ~weight_update:false ~route_io grid ~tc sched tasks
    ~unresolved
