module Interval = Mfb_util.Interval
module Types = Mfb_schedule.Types

let pitch_mm = 10.

type kind = Transport | Dispense | Waste

type task = {
  transport : Types.transport;
  kind : kind;
  path : (int * int) list;
  delay : float;
  pre_wash : float;
  washed_cells : int;
}

type result = {
  tasks : task list;
  grid : Rgrid.t;
  total_channel_length_mm : float;
  total_channel_wash : float;
  total_delay : float;
  unresolved : int;
}

type role = Port of { tc : float } | Park | Sweep

let hold (tr : Types.transport) ~delay role =
  let removal = tr.removal +. delay in
  let depart = tr.depart +. delay in
  let arrive = tr.arrive +. delay in
  if depart -. removal <= Rgrid.tolerance then Interval.make removal arrive
  else
    match role with
    | Port { tc } -> Interval.make removal (Float.min (removal +. tc) arrive)
    | Park -> Interval.make removal arrive
    | Sweep -> Interval.make depart arrive

(* The evicted fluid is pushed through the source port into the adjacent
   channel cell, parks there until [depart], then sweeps to the
   destination.  Parking at the source side keeps the contended
   destination ports free until the actual arrival window.  A path of at
   most two cells has no cell beyond the parking one, so the fluid waits
   on all of it. *)
let occupancy ~tc task =
  let short = List.length task.path <= 2 and port = Port { tc } in
  List.mapi
    (fun i xy ->
      let role =
        if short || i = 1 then Park else if i = 0 then port else Sweep
      in
      (xy, hold task.transport ~delay:task.delay role))
    task.path

let measure_wash grid ~tc task =
  List.fold_left
    (fun (worst, count) (xy, iv) ->
      let debt = Rgrid.wash_debt grid xy ~at:(Interval.lo iv) task.transport.fluid in
      ((if debt > worst then debt else worst),
       if debt > 0. then count + 1 else count))
    (0., 0)
    (occupancy ~tc task)

let commit ?(weight_update = true) grid ~tc task =
  List.iter
    (fun (xy, interval) ->
      Rgrid.add_occupation grid xy
        { Rgrid.interval; fluid = task.transport.fluid })
    (occupancy ~tc task);
  if weight_update then begin
    let residue_wash = Mfb_bioassay.Fluid.wash_time task.transport.fluid in
    List.iter (fun xy -> Rgrid.set_weight grid xy residue_wash) task.path
  end

let commit_path ?weight_update grid ~tc kind transport ~path ~delay =
  let task =
    { transport; kind; path; delay; pre_wash = 0.; washed_cells = 0 }
  in
  let pre_wash, washed_cells = measure_wash grid ~tc task in
  let task = { task with pre_wash; washed_cells } in
  commit ?weight_update grid ~tc task;
  task

let start_order (sched : Types.t) =
  List.sort
    (fun (a : Types.transport) b ->
      let c = Float.compare a.removal b.removal in
      if c <> 0 then c else Float.compare a.depart b.depart)
    sched.transports

let border_cells grid =
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let top = List.init w (fun x -> (x, 0)) in
  let bottom = List.init w (fun x -> (x, h - 1)) in
  let left = List.init h (fun y -> (0, y)) in
  let right = List.init h (fun y -> (w - 1, y)) in
  List.filter (fun xy -> not (Rgrid.blocked grid xy))
    (top @ bottom @ left @ right)

let endpoints grid kind (tr : Types.transport) =
  match kind with
  | Transport -> (Rgrid.ports grid tr.src, Rgrid.ports grid tr.dst)
  | Dispense -> (border_cells grid, Rgrid.ports grid tr.dst)
  | Waste -> (Rgrid.ports grid tr.src, border_cells grid)

let rec near_any ports x y =
  match ports with
  | [] -> false
  | (px, py) :: rest -> abs (x - px) + abs (y - py) <= 1 || near_any rest x y

(* A path's port and parking cells both lie within distance 1 of a source
   port, so the search asks every such cell at the parking role, the
   longer of the two holds, and every other cell at the sweep role. *)
let usable grid tr ~delay ~src_ports =
  let w = Rgrid.width grid and fluid = tr.Types.fluid in
  let near = hold tr ~delay Park and far = hold tr ~delay Sweep in
  fun i ->
    Rgrid.conflict_free_at grid i
      (if near_any src_ports (i mod w) (i / w) then near else far)
      fluid

let settle_delay ?(from = 0.) grid (tr : Types.transport) ~src_ports path =
  let fuel = (8 * List.length path) + 8 in
  let cell_delay delay ((x, y) as xy) =
    Rgrid.required_delay grid xy
      (hold tr ~delay (if near_any src_ports x y then Park else Sweep))
      tr.fluid
  in
  let rec loop delay fuel =
    if fuel = 0 then None
    else begin
      let worst =
        List.fold_left (fun acc xy -> Float.max acc (cell_delay delay xy))
          0. path
      in
      if worst = infinity then None
      else if worst <= Rgrid.tolerance then Some delay
      else loop (delay +. worst) (fuel - 1)
    end
  in
  loop from fuel

let finalize grid tasks ~unresolved =
  let distinct = List.length (Rgrid.used_cells grid) in
  {
    tasks = List.rev tasks;
    grid;
    total_channel_length_mm = float_of_int distinct *. pitch_mm;
    total_channel_wash =
      List.fold_left (fun acc t -> acc +. t.pre_wash) 0. tasks;
    total_delay = List.fold_left (fun acc t -> acc +. t.delay) 0. tasks;
    unresolved;
  }
