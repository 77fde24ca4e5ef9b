module Types = Mfb_schedule.Types
module Check = Mfb_schedule.Check
module Chip = Mfb_place.Chip
module Net = Mfb_place.Net
module Energy = Mfb_place.Energy
module Routed = Mfb_route.Routed
module Rgrid = Mfb_route.Rgrid
module Router = Mfb_route.Router
module Telemetry = Mfb_util.Telemetry
module Json = Mfb_util.Json

type rung = Rerouted | Rerouted_delayed | Rebound | Resynthesized

let rung_name = function
  | Rerouted -> "reroute"
  | Rerouted_delayed -> "reroute-delayed"
  | Rebound -> "rebind"
  | Resynthesized -> "resynthesize"

type report = {
  targets : Defect.target list;
  ripped_up : int;
  rerouted : int;
  rerouted_delayed : int;
  rebound : int;
  fallbacks : int;
  failed : int;
  rung : rung option;
  survived : bool;
  makespan_before : float;
  makespan_after : float;
}

type outcome = {
  report : report;
  schedule : Types.t;
  chip : Chip.t;
  routing : Routed.result;
}

(* Split raw targets into channel-cell defects and dead components,
   lifting footprint cells to their owning component (a defect under a
   component is a component fault).  Both lists sorted and deduplicated
   so the rest of the repair is order-independent of the input. *)
let normalize chip raw =
  let cells, comps =
    List.fold_left
      (fun (cells, comps) t ->
        match t with
        | Defect.Cell (x, y) ->
          (match Defect.owner chip (x, y) with
           | Some c -> (cells, c :: comps)
           | None -> ((x, y) :: cells, comps))
        | Defect.Component c -> (cells, c :: comps))
      ([], []) raw
  in
  (List.sort_uniq compare cells, List.sort_uniq compare comps)

let normalized_targets (cells, comps) =
  List.map (fun (x, y) -> Defect.Cell (x, y)) cells
  @ List.map (fun c -> Defect.Component c) comps

(* --- Re-binding (rung 3) --- *)

let remap_component mapping c =
  match List.assoc_opt c mapping with Some j -> j | None -> c

let remap_schedule (sched : Types.t) mapping =
  let rc = remap_component mapping in
  {
    sched with
    times =
      Array.map
        (fun (t : Types.op_times) -> { t with component = rc t.component })
        sched.times;
    transports =
      List.map
        (fun (tr : Types.transport) ->
          { tr with src = rc tr.src; dst = rc tr.dst })
        sched.transports;
    washes =
      List.map
        (fun (w : Types.wash_event) -> { w with component = rc w.component })
        sched.washes;
  }

(* Candidate spares for a dead component, cheapest first: same kind, not
   itself dead, ranked by the net-adjacency partial sum the rebind would
   leave ([incident_total] over the nets incident to the spare after the
   remap) with the component id as the deterministic tie-break. *)
let rebind_candidates ~(config : Mfb_core.Config.t) chip (sched : Types.t)
    ~dead d =
  let n = Array.length sched.components in
  let kind = sched.components.(d).Mfb_component.Component.kind in
  let centres = Array.init (Array.length chip.Chip.places) (Chip.center chip) in
  let cx = Array.map fst centres and cy = Array.map snd centres in
  let score j =
    let sched' = remap_schedule sched [ (d, j) ] in
    let weighted =
      Energy.weigh ~beta:config.beta ~gamma:config.gamma
        (Net.of_schedule sched')
    in
    let idx = Energy.index ~n_components:n weighted in
    Energy.incident_total idx cx cy j j
  in
  let rec collect j acc =
    if j < 0 then acc
    else if
      j <> d
      && (not (List.mem j dead))
      && sched.components.(j).Mfb_component.Component.kind = kind
    then collect (j - 1) ((score j, j) :: acc)
    else collect (j - 1) acc
  in
  List.map snd (List.sort compare (collect (n - 1) []))

let component_used (sched : Types.t) d =
  Array.exists (fun (t : Types.op_times) -> t.component = d) sched.times
  || List.exists
       (fun (tr : Types.transport) -> tr.src = d || tr.dst = d)
       sched.transports

(* Move every operation off each dead component onto the best legal
   spare.  Dead components are processed in ascending id order against
   the schedule as remapped so far, so the result is deterministic.
   Returns the remapped schedule, the (dead -> spare) mapping, the
   number of rebound operations, and the dead components that had work
   but no legal spare. *)
let rebind ~config ~tc chip sched ~dead =
  List.fold_left
    (fun (sched, mapping, bound, dead_failed) d ->
      if not (component_used sched d) then (sched, mapping, bound, dead_failed)
      else begin
        let ops =
          Array.fold_left
            (fun acc (t : Types.op_times) ->
              if t.component = d then acc + 1 else acc)
            0 sched.times
        in
        let chosen =
          List.find_map
            (fun j ->
              let sched' = remap_schedule sched [ (d, j) ] in
              if Check.validate ~tc sched' = [] then Some (j, sched')
              else None)
            (rebind_candidates ~config chip sched ~dead d)
        in
        match chosen with
        | Some (j, sched') ->
          (sched', (d, j) :: mapping, bound + ops, dead_failed)
        | None -> (sched, mapping, bound, d :: dead_failed)
      end)
    (sched, [], 0, []) dead

(* --- Re-routing (rungs 1, 2 and the fallback) --- *)

(* Route [pairs] (original task, remapped transport) in order on [grid]
   with the router's [First_fit] ladder: the task's own delay first
   (rung 1), then later ones (rung 2).  Returns committed tasks paired
   with their original delays in reverse commit order, plus the
   (in-window, delayed, failed) counters. *)
let route_all grid ~tc ~is_defect pairs =
  List.fold_left
    (fun (acc, inw, dly, failed) ((task : Routed.task), tr) ->
      match
        Router.route_one ~policy:Router.First_fit ~is_defect ~kind:task.kind
          ~delay:task.delay grid ~tc tr
      with
      | Router.In_window t -> ((t, task.delay) :: acc, inw + 1, dly, failed)
      | Delayed t -> ((t, task.delay) :: acc, inw, dly + 1, failed)
      | Unresolved _ | Unroutable -> (acc, inw, dly, failed + 1))
    ([], 0, 0, 0) pairs

let repair ~(config : Mfb_core.Config.t) (result : Mfb_core.Result.t)
    ~defects =
  Telemetry.span ~cat:"repair" "repair" @@ fun () ->
  let tc = config.tc and we = config.we in
  let chip = result.chip in
  let sched0 = result.schedule and routing0 = result.routing in
  let ((defect_cells, dead) as normalized) = normalize chip defects in
  let is_defect xy = List.mem xy defect_cells in
  (* Rung 3 first: dead components force re-binding before any routing,
     because the spare's ports decide where the affected tasks go. *)
  let sched, mapping, rebound, dead_failed =
    if dead = [] then (sched0, [], 0, [])
    else rebind ~config ~tc chip sched0 ~dead
  in
  let remap (tr : Types.transport) =
    { tr with
      src = remap_component mapping tr.src;
      dst = remap_component mapping tr.dst }
  in
  let touches_dead (t : Routed.task) =
    List.mem t.transport.Types.src dead
    || List.mem t.transport.Types.dst dead
  in
  let unroutable_dead (t : Routed.task) =
    List.mem t.transport.Types.src dead_failed
    || List.mem t.transport.Types.dst dead_failed
  in
  let affected_by t = touches_dead t || List.exists is_defect t.Routed.path in
  let healthy, affected =
    List.partition (fun t -> not (affected_by t)) routing0.tasks
  in
  (* Tasks pinned to a dead component that found no spare cannot be
     routed anywhere; they are dropped and reported as failures. *)
  let doomed, rippable = List.partition unroutable_dead affected in
  let pairs = List.map (fun t -> (t, remap t.Routed.transport)) rippable in
  (* Incremental attempt: healthy occupations stay, only the ripped-up
     tasks re-route around them. *)
  let grid = Rgrid.create ~we chip in
  List.iter (fun t -> Routed.commit grid ~tc t) healthy;
  let rev_repaired, in_window, delayed, route_failed =
    route_all grid ~tc ~is_defect pairs
  in
  let ripped_up, grid, rev_repaired, in_window, delayed, route_failed,
      fallbacks, commit_order_healthy =
    if route_failed = 0 then
      (List.length rippable, grid, rev_repaired, in_window, delayed, 0, 0,
       healthy)
    else begin
      (* Fallback rung: rip up everything and re-route the whole design
         on the defect-masked grid, in the original commit order. *)
      let grid = Rgrid.create ~we chip in
      let pairs =
        List.filter_map
          (fun (t : Routed.task) ->
            if unroutable_dead t then None
            else Some (t, remap t.transport))
          routing0.tasks
      in
      let rev_repaired, inw, dly, failed =
        route_all grid ~tc ~is_defect pairs
      in
      (List.length pairs, grid, rev_repaired, inw, dly, failed, 1, [])
    end
  in
  let routing =
    Routed.finalize grid
      (List.map fst rev_repaired
       @ List.rev_map (fun t -> t) commit_order_healthy)
      ~unresolved:(route_failed + List.length doomed)
  in
  (* Push any postponement beyond each task's original delay back
     through the schedule with the cold flow's own stage. *)
  let schedule = Mfb_core.Flow.retime sched (List.rev rev_repaired) in
  let failed = route_failed + List.length doomed + List.length dead_failed in
  let rung =
    if fallbacks > 0 then Some Resynthesized
    else if rebound > 0 || dead_failed <> [] then Some Rebound
    else if delayed > 0 then Some Rerouted_delayed
    else if in_window > 0 then Some Rerouted
    else None
  in
  let report =
    {
      targets = normalized_targets normalized;
      ripped_up;
      rerouted = in_window;
      rerouted_delayed = delayed;
      rebound;
      fallbacks;
      failed;
      rung;
      survived = failed = 0;
      makespan_before = sched0.Types.makespan;
      makespan_after = schedule.Types.makespan;
    }
  in
  if report.ripped_up > 0 then
    Telemetry.incr ~cat:"repair" ~by:report.ripped_up "ripped_up";
  if report.rerouted + report.rerouted_delayed > 0 then
    Telemetry.incr ~cat:"repair"
      ~by:(report.rerouted + report.rerouted_delayed)
      "rerouted";
  if report.rebound > 0 then
    Telemetry.incr ~cat:"repair" ~by:report.rebound "rebound";
  if report.fallbacks > 0 then
    Telemetry.incr ~cat:"repair" ~by:report.fallbacks "fallbacks";
  { report; schedule; chip; routing }

let verify ~(config : Mfb_core.Config.t) ~defects (o : outcome) =
  let tc = config.tc and we = config.we in
  let defect_cells, dead = normalize o.chip defects in
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  List.iter
    (fun (v : Check.violation) -> flag "schedule:%s: %s" v.code v.message)
    (Check.validate ~tc o.schedule);
  (* Dead components must have no remaining work in the schedule (when
     their rebind succeeded, i.e. no transport still names them). *)
  Array.iteri
    (fun op (t : Types.op_times) ->
      if List.mem t.component dead then
        flag "binding: op %d still bound to dead component %d" op t.component)
    o.schedule.times;
  (* Routing: no path over a defect, and the commit-order replay must be
     conflict-free (overlap and wash separation) on a fresh grid. *)
  let grid = Rgrid.create ~we o.chip in
  List.iter
    (fun (task : Routed.task) ->
      let tr = task.transport in
      if List.mem tr.Types.src dead || List.mem tr.Types.dst dead then
        flag "routing: task %s still attached to a dead component"
          (Format.asprintf "%a" Types.pp_transport tr);
      List.iter
        (fun cell ->
          if List.mem cell defect_cells then
            flag "routing: path of edge (%d,%d) crosses defect cell (%d,%d)"
              (fst tr.Types.edge) (snd tr.Types.edge) (fst cell) (snd cell))
        task.path;
      List.iter
        (fun (cell, iv) ->
          if not (Rgrid.conflict_free grid cell iv tr.Types.fluid) then
            flag
              "routing: occupation conflict at (%d,%d) for edge (%d,%d)"
              (fst cell) (snd cell) (fst tr.Types.edge) (snd tr.Types.edge))
        (Routed.occupancy ~tc task);
      Routed.commit grid ~tc task)
    o.routing.tasks;
  List.rev !violations

let report_to_json (r : report) =
  Json.Obj
    [
      ("targets", Json.List (List.map Defect.target_to_json r.targets));
      ("ripped_up", Json.Int r.ripped_up);
      ("rerouted", Json.Int r.rerouted);
      ("rerouted_delayed", Json.Int r.rerouted_delayed);
      ("rebound", Json.Int r.rebound);
      ("fallbacks", Json.Int r.fallbacks);
      ("failed", Json.Int r.failed);
      ( "rung",
        match r.rung with
        | None -> Json.String "none"
        | Some rg -> Json.String (rung_name rg) );
      ("survived", Json.Bool r.survived);
      ("makespan_before", Json.Float r.makespan_before);
      ("makespan_after", Json.Float r.makespan_after);
    ]

type yield_report = {
  cells_tested : int;
  survived : int;
  yield : float;
  worst : ((int * int) * report) option;
}

let single_defect_yield ~config (result : Mfb_core.Result.t) =
  let used = Rgrid.used_cells result.routing.grid in
  let cells =
    List.filter (fun c -> List.mem c used) (Defect.cells result.chip)
  in
  let reports =
    List.map
      (fun c -> (c, (repair ~config result ~defects:[ Defect.Cell c ]).report))
      cells
  in
  let in_window (_, (r : report)) =
    r.survived && (r.rung = None || r.rung = Some Rerouted)
  in
  let survived = List.length (List.filter in_window reports) in
  let tested = List.length cells in
  {
    cells_tested = tested;
    survived;
    yield =
      (if tested = 0 then 1.0
       else float_of_int survived /. float_of_int tested);
    worst = List.find_opt (fun c -> not (in_window c)) reports;
  }
