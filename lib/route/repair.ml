module Types = Mfb_schedule.Types
module Chip = Mfb_place.Chip

(* Row-major comparison: y is the major axis, matching the (x, y)
   tuple layout of every grid cell in the codebase. *)
let row_major_compare (x1, y1) (x2, y2) =
  let c = Int.compare y1 y2 in
  if c <> 0 then c else Int.compare x1 x2

let owner (chip : Chip.t) (cx, cy) =
  let n = Array.length chip.components in
  let rec scan i =
    if i >= n then None
    else
      let x, y, w, h = Chip.footprint chip i in
      if cx >= x && cx < x + w && cy >= y && cy < y + h then Some i
      else scan (i + 1)
  in
  scan 0

let cells (chip : Chip.t) =
  let acc = ref [] in
  for y = chip.height - 1 downto 0 do
    for x = chip.width - 1 downto 0 do
      if owner chip (x, y) = None then acc := (x, y) :: !acc
    done
  done;
  !acc

type outcome = {
  defect : int * int;
  affected : int;
  repaired : int;
  survived : bool;
}

type injection =
  | Channel of outcome
  | Component_fault of { component : int }

let inject_channel ~we ~tc chip (sched : Types.t) (routing : Routed.result)
    ~defect =
  let grid = Rgrid.create ~we chip in
  let healthy, affected =
    List.partition
      (fun (task : Routed.task) -> not (List.mem defect task.path))
      routing.tasks
  in
  (* Healthy tasks keep their paths; their occupations constrain the
     repair. *)
  List.iter (fun task -> Routed.commit grid ~tc task) healthy;
  ignore sched;
  let repaired =
    List.filter
      (fun (task : Routed.task) ->
        match
          Router.attempt ~is_defect:(( = ) defect) grid task.kind
            task.transport ~delay:task.delay
        with
        | Some path ->
          Routed.commit grid ~tc { task with path };
          true
        | None -> false)
      affected
  in
  {
    defect;
    affected = List.length affected;
    repaired = List.length repaired;
    survived = List.length repaired = List.length affected;
  }

let inject ~we ~tc chip (sched : Types.t) (routing : Routed.result) ~defect =
  match owner chip defect with
  | Some component -> Component_fault { component }
  | None -> Channel (inject_channel ~we ~tc chip sched routing ~defect)

type yield_report = {
  cells_tested : int;
  survived : int;
  yield : float;
  worst : outcome option;
}

let single_defect_yield ~we ~tc chip sched (routing : Routed.result) =
  (* Used cells in the canonical row-major order, so [worst] is the
     first failing cell of a stable enumeration. *)
  let cells =
    List.sort row_major_compare (Rgrid.used_cells routing.grid)
  in
  let outcomes =
    List.map
      (fun defect -> inject_channel ~we ~tc chip sched routing ~defect)
      cells
  in
  let survived =
    List.length (List.filter (fun (o : outcome) -> o.survived) outcomes)
  in
  {
    cells_tested = List.length cells;
    survived;
    yield =
      (if cells = [] then 1.0
       else float_of_int survived /. float_of_int (List.length cells));
    worst = List.find_opt (fun (o : outcome) -> not o.survived) outcomes;
  }
