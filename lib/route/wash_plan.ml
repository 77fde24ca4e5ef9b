module Interval = Mfb_util.Interval

type flush = {
  task_edge : int * int;
  duration : float;
  window : Interval.t;
  route : (int * int) list;
  interferences : int;
}

type t = {
  flushes : flush list;
  total_flush_time : float;
  total_route_cells : int;
  total_interferences : int;
  buffer_volume_cells : float;
}

(* Shortest obstacle-avoiding connection from [cell] to the chip border
   (possibly just [cell] itself when it already sits on the border). *)
let to_border grid cell =
  let usable i = not (Rgrid.blocked_at grid i) in
  match
    Astar.search_multi grid ~srcs:[ cell ] ~dsts:(Routed.border_cells grid)
      ~usable ~use_weights:false
  with
  | Some path -> path
  | None -> [ cell ]

let flush_of grid ~tc (task : Routed.task) =
  let path = task.path in
  let head = List.hd path in
  let tail = List.nth path (List.length path - 1) in
  let approach = to_border grid head in
  let drain = to_border grid tail in
  (* approach runs border-wards from the head; reverse it to flow
     inwards.  Skip the duplicated junction cells. *)
  let route =
    List.rev (List.tl approach) @ path @ List.tl drain
  in
  let entry =
    match Routed.occupancy ~tc task with
    | (_, iv) :: _ -> Interval.lo iv
    | [] -> task.transport.removal +. task.delay
  in
  let window = Interval.make (entry -. task.pre_wash) entry in
  let interferences =
    List.length
      (List.filter
         (fun xy ->
           List.exists
             (fun (o : Rgrid.occupation) ->
               Interval.overlaps o.interval window
               && not
                    (Mfb_bioassay.Fluid.equal o.fluid task.transport.fluid))
             (Rgrid.occupations grid xy))
         route)
  in
  { task_edge = task.transport.edge; duration = task.pre_wash; window;
    route; interferences }

let plan ~tc (routing : Routed.result) =
  let dirty =
    List.filter (fun (task : Routed.task) -> task.pre_wash > 0.) routing.tasks
  in
  let flushes = List.map (flush_of routing.grid ~tc) dirty in
  {
    flushes;
    total_flush_time =
      List.fold_left (fun acc f -> acc +. f.duration) 0. flushes;
    total_route_cells =
      List.fold_left (fun acc f -> acc + List.length f.route) 0 flushes;
    total_interferences =
      List.fold_left (fun acc f -> acc + f.interferences) 0 flushes;
    buffer_volume_cells =
      List.fold_left
        (fun acc f -> acc +. (f.duration *. float_of_int (List.length f.route)))
        0. flushes;
  }
