module Types = Mfb_schedule.Types
module Check = Mfb_schedule.Check
module Drc = Mfb_route.Drc
module Rgrid = Mfb_route.Rgrid
module Routed = Mfb_route.Routed

let check ~(config : Mfb_core.Config.t) ?(defects = []) (schedule : Types.t)
    chip (routing : Routed.result) =
  let tc = config.tc in
  let defect_cells, dead = Defect.normalize chip defects in
  let violations = ref [] in
  let flag fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  List.iter
    (fun (v : Check.violation) -> flag "schedule:%s: %s" v.code v.message)
    (Check.validate ~tc schedule);
  List.iter
    (fun (v : Drc.violation) -> flag "geometry:%s: %s" v.rule v.message)
    (Drc.check chip routing);
  Array.iteri
    (fun op (t : Types.op_times) ->
      if List.mem t.component dead then
        flag "binding: op %d still bound to dead component %d" op t.component)
    schedule.times;
  let grid = Rgrid.create ~we:config.we chip in
  List.iter
    (fun (task : Routed.task) ->
      let tr = task.transport in
      let p, o = tr.edge in
      if List.mem tr.src dead || List.mem tr.dst dead then
        flag "routing: task %s still attached to a dead component"
          (Format.asprintf "%a" Types.pp_transport tr);
      List.iter
        (fun (x, y) ->
          if List.mem (x, y) defect_cells then
            flag "routing: path of edge (%d,%d) crosses defect cell (%d,%d)"
              p o x y)
        task.path;
      let occupations = Routed.occupancy ~tc task in
      List.iter
        (fun (((x, y) as cell), iv) ->
          if not (Rgrid.conflict_free_ref grid cell iv tr.fluid) then
            flag "routing: occupation conflict at (%d,%d) for edge (%d,%d)" x
              y p o)
        occupations;
      List.iter
        (fun (cell, interval) ->
          Rgrid.add_occupation grid cell { Rgrid.interval; fluid = tr.fluid })
        occupations)
    routing.tasks;
  List.rev !violations
