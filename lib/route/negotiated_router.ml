module Interval = Mfb_util.Interval
module Telemetry = Mfb_util.Telemetry
module Types = Mfb_schedule.Types

let present_penalty = 4.
let history_increment = 2.

let max_iterations = 8

let route ?(weight_update = true) ?(route_io = false)
    ~we ~tc chip (sched : Types.t) =
  if tc <= 0. then
    invalid_arg "Negotiated_router.route: tc must be positive";
  let scratch () = Rgrid.create ~we chip in
  let transports = Routed.start_order sched in
  let n = List.length transports in
  let history = Hashtbl.create 64 in
  let history_of xy = Option.value ~default:0. (Hashtbl.find_opt history xy) in
  let bump xy =
    Hashtbl.replace history xy (history_of xy +. history_increment)
  in
  (* One negotiation iteration: route everyone against the paths already
     chosen this round; return the paths and the set of contested cells. *)
  let iteration () =
    let grid = scratch () in
    (* occupancy chosen so far this round: cell -> (interval, task idx). *)
    let claimed : ((int * int), (Interval.t * int) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let paths = Array.make n [] in
    List.iteri
      (fun i (tr : Types.transport) ->
        (* Every cell at the parking hold, the longest one: which cells
           are port and parking cells depends on the path. *)
        let window = Routed.hold tr ~delay:0. Routed.Park in
        let srcs = Rgrid.ports grid tr.src and dsts = Rgrid.ports grid tr.dst in
        let sharing xy =
          match Hashtbl.find_opt claimed xy with
          | None -> 0
          | Some claims ->
            List.length
              (List.filter
                 (fun (iv, owner) ->
                   owner <> i && Interval.overlaps iv window)
                 claims)
        in
        let extra_cost xy =
          history_of xy
          +. (present_penalty *. float_of_int (sharing xy))
        in
        let usable i = not (Rgrid.blocked_at grid i) in
        let path =
          match
            Astar.search_multi ~extra_cost grid ~srcs ~dsts ~usable
              ~use_weights:true
          with
          | Some p -> p
          | None -> [ List.hd srcs; List.hd dsts ]
        in
        paths.(i) <- path;
        List.iter
          (fun xy ->
            let prior = Option.value ~default:[] (Hashtbl.find_opt claimed xy) in
            Hashtbl.replace claimed xy ((window, i) :: prior))
          path)
      transports;
    let contested =
      Hashtbl.fold
        (fun xy claims acc ->
          let overlapping =
            List.exists
              (fun (iv, owner) ->
                List.exists
                  (fun (iv', owner') ->
                    owner <> owner' && Interval.overlaps iv iv')
                  claims)
              claims
          in
          if overlapping then xy :: acc else acc)
        claimed []
    in
    (paths, contested)
  in
  let rec negotiate k =
    let paths, contested =
      Telemetry.span ~cat:"route" "negotiate.iteration"
        ~args:[ ("remaining", Telemetry.Int k) ]
        iteration
    in
    Telemetry.incr ~cat:"route" "negotiate.iterations";
    Telemetry.sample ~cat:"route" "negotiate.contested"
      (float_of_int (List.length contested));
    if contested = [] || k <= 1 then paths
    else begin
      List.iter bump contested;
      Telemetry.incr ~cat:"route" ~by:(List.length contested)
        "negotiate.bumped_cells";
      negotiate (k - 1)
    end
  in
  let paths = negotiate max_iterations in
  (* Commit in start order on a fresh grid; time conflicts that survived
     negotiation become postponements (as in the sequential router). *)
  let grid = scratch () in
  let tasks, unresolved =
    List.fold_left
      (fun (tasks, unresolved) (i, (tr : Types.transport)) ->
        let path = paths.(i) in
        let srcs = Rgrid.ports grid tr.src in
        let usable = Routed.usable grid tr ~delay:0. ~src_ports:srcs in
        let w = Rgrid.width grid in
        let conflict_free =
          List.for_all (fun (x, y) -> usable ((y * w) + x)) path
        in
        let delay, failed =
          if conflict_free then (0., false)
          else
            match Routed.settle_delay grid tr ~src_ports:srcs path with
            | Some d -> (d, false)
            | None -> (0., true)
        in
        let task =
          Routed.commit_path ~weight_update grid ~tc Routed.Transport tr ~path
            ~delay
        in
        (task :: tasks, if failed then unresolved + 1 else unresolved))
      ([], 0)
      (List.mapi (fun i tr -> (i, tr)) transports)
  in
  Io_router.finalize ~weight_update ~route_io grid ~tc sched tasks ~unresolved
