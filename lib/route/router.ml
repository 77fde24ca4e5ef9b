module Telemetry = Mfb_util.Telemetry
module Types = Mfb_schedule.Types

type policy = Cheapest | First_fit

type outcome =
  | In_window of Routed.task
  | Delayed of Routed.task
  | Unresolved of Routed.task
  | Unroutable

(* Exchange rate between postponing a transport and lengthening its
   channel: one second of delay costs as much as one fresh routing cell
   (whose weighted cost is [1 + w_e]).  A short wait on an existing
   channel then beats a long detour onto fresh cells, which is how the
   proposed flow keeps both execution time and channel length low. *)
let delay_cost_per_second = 8.

let delay_candidates = [ 0.; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0 ]

(* A [First_fit] settle fallback is accepted up to this delay, so a
   repair cannot silently degenerate into an arbitrarily late
   schedule. *)
let delay_budget = 16.

(* [ok] by cell index, and not a defect when [is_defect] is given. *)
let avoiding ?is_defect grid ok =
  match is_defect with
  | None -> ok
  | Some defect ->
    let w = Rgrid.width grid in
    fun i -> ok i && not (defect (i mod w, i / w))

let search ?stats ?is_defect ?cutoff ~use_weights grid tr ~srcs ~dsts ~delay =
  let usable =
    avoiding ?is_defect grid (Routed.usable grid tr ~delay ~src_ports:srcs)
  in
  Astar.search_multi ?stats ?cutoff grid ~srcs ~dsts ~usable ~use_weights

let route_one ?(weight_update = true) ?is_defect ?(kind = Routed.Transport)
    ?(delay = 0.) ~policy grid ~tc (tr : Types.transport) =
  let cold = policy = Cheapest in
  let srcs, dsts = Routed.endpoints grid kind tr in
  let effort = Astar.stats () in
  let found ?cutoff d =
    search ~stats:effort ?is_defect ?cutoff ~use_weights:weight_update grid tr
      ~srcs ~dsts ~delay:d
    |> Option.map (fun path -> (path, d))
  in
  let ladder = delay :: List.filter (fun d -> d > delay) delay_candidates in
  let chosen =
    match policy with
    | First_fit -> List.find_map found ladder
    | Cheapest ->
      (* Once a candidate scores [s'], a path at delay [d] can change
         the choice only by costing less than [s' - 8d].  Its search
         stops once no path below that plus 1e-6 is left: any path it
         would have found scores above [s'], as rounding in the two sums
         stays far below 1e-6, and so loses to the incumbent. *)
      List.fold_left
        (fun best d ->
          let cutoff =
            Option.map
              (fun (_, s') -> s' -. (delay_cost_per_second *. d) +. 1e-6)
              best
          in
          match found ?cutoff d with
          | None -> best
          | Some ((path, _) as c) ->
            let s =
              Astar.path_cost grid ~use_weights:weight_update path
              +. (delay_cost_per_second *. d)
            in
            (match best with
             | Some (_, s') when s' <= s -> best
             | Some _ | None -> Some (c, s)))
        None ladder
      |> Option.map fst
  in
  let commit path d =
    let task =
      Routed.commit_path ~weight_update grid ~tc kind tr ~path ~delay:d
    in
    if cold then begin
      Telemetry.sample ~cat:"route" "astar.task_pops"
        (float_of_int effort.pops);
      if d > 0. then Telemetry.observe ~cat:"route" "task.delay" d;
      Telemetry.observe ~cat:"route" "task.path_cells"
        (float_of_int (List.length path))
    end;
    task
  in
  let settle path =
    let budget = if cold then infinity else delay_budget in
    let settled =
      match Routed.settle_delay grid tr ~src_ports:srcs path with
      | Some d when d <= budget ->
        (* A path that settles before the task's own delay was never
           checked at that delay; settle again from there. *)
        if d < delay then
          Routed.settle_delay ~from:delay grid tr ~src_ports:srcs path
        else Some d
      | Some _ | None -> None
    in
    match settled with
    | Some d -> Delayed (commit path d)
    | None when cold ->
      Telemetry.incr ~cat:"route" "unresolved";
      Unresolved (commit path 0.)
    | None -> Unroutable
  in
  match chosen with
  | Some (path, d) ->
    if d = delay then In_window (commit path d) else Delayed (commit path d)
  | None ->
    (* Spatially blocked or hopelessly congested: fall back to the
       shortest obstacle-avoiding path and postpone along it. *)
    if cold then Telemetry.incr ~cat:"route" "conflict.rejections";
    let usable =
      avoiding ?is_defect grid (fun i -> not (Rgrid.blocked_at grid i))
    in
    (match
       Astar.search_multi ~stats:effort grid ~srcs ~dsts ~usable
         ~use_weights:false
     with
     | Some path -> settle path
     | None when cold ->
       settle [ List.hd srcs; List.hd dsts ] (* degenerate fallback *)
     | None -> Unroutable)

let route ?(weight_update = true) ?(route_io = false) ~we ~tc chip
    (sched : Types.t) =
  if tc <= 0. then invalid_arg "Router.route: tc must be positive";
  let grid = Rgrid.create ~we chip in
  let tasks, unresolved =
    List.fold_left
      (fun (tasks, unresolved) (tr : Types.transport) ->
        match
          Telemetry.span ~cat:"route" "transport"
            ~args:
              [ ("edge_src", Telemetry.Int (fst tr.edge));
                ("edge_dst", Telemetry.Int (snd tr.edge));
                ("from", Telemetry.Int tr.src);
                ("to", Telemetry.Int tr.dst) ]
            (fun () -> route_one ~weight_update ~policy:Cheapest grid ~tc tr)
        with
        | In_window task | Delayed task -> (task :: tasks, unresolved)
        | Unresolved task -> (task :: tasks, unresolved + 1)
        | Unroutable -> (tasks, unresolved + 1))
      ([], 0) (Routed.start_order sched)
  in
  Io_router.finalize ~weight_update ~route_io grid ~tc sched tasks ~unresolved
