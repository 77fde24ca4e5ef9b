(* Tests for the routing stage: grid, A*, conflict-aware router (paper
   Alg. 2 lines 9-18) and the construction-by-correction baseline. *)

module Chip = Mfb_place.Chip
module Rgrid = Mfb_route.Rgrid
module Astar = Mfb_route.Astar
module Routed = Mfb_route.Routed
module Router = Mfb_route.Router
module Baseline_router = Mfb_route.Baseline_router
module Interval = Mfb_util.Interval
module Fluid = Mfb_bioassay.Fluid
module Allocation = Mfb_component.Allocation
module Types = Mfb_schedule.Types

let tc = 2.0
let we = 10.0

let easy = Fluid.make ~name:"easy" ~diffusion:1e-5
let hard = Fluid.make ~name:"hard" ~diffusion:1e-8

let chip_of vector =
  Chip.scanline (Array.of_list (Allocation.components (Allocation.of_vector vector)))

let grid_of vector = Rgrid.create ~we (chip_of vector)

(* A full synthesis front-end for routing tests. *)
let routed_instance ?(weight_update = true) index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  let nets =
    Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4 (Mfb_place.Net.of_schedule sched)
  in
  let placed =
    Mfb_place.Annealer.place
      ~params:{ Mfb_place.Annealer.default_params with t0 = 100.; i_max = 40 }
      ~rng:(Mfb_util.Rng.create 42) ~nets sched.components
  in
  (sched, placed.chip, Router.route ~weight_update ~we ~tc placed.chip sched)

(* --- Rgrid --- *)

let test_grid_blocked_matches_chip () =
  let chip = chip_of (2, 1, 0, 0) in
  let grid = Rgrid.create ~we chip in
  List.iter
    (fun xy ->
      Alcotest.(check bool) "footprint blocked" true (Rgrid.blocked grid xy))
    (Chip.blocked_cells chip);
  Alcotest.(check bool) "free cell" false
    (Rgrid.blocked grid (chip.width - 1, chip.height - 1))

let test_grid_ports () =
  let chip = chip_of (3, 2, 1, 1) in
  let grid = Rgrid.create ~we chip in
  Array.iteri
    (fun i _ ->
      let ports = Rgrid.ports grid i in
      Alcotest.(check bool) "has ports" true (ports <> []);
      Alcotest.(check bool) "at most four" true (List.length ports <= 4);
      List.iter
        (fun xy ->
          Alcotest.(check bool) "port unblocked" false (Rgrid.blocked grid xy);
          Alcotest.(check bool) "port in bounds" true (Rgrid.in_bounds grid xy))
        ports;
      Alcotest.(check bool) "canonical port is first" true
        (Rgrid.port grid i = List.hd ports))
    chip.components

let test_grid_weights () =
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  Alcotest.(check (float 1e-9)) "initial w_e" we (Rgrid.weight grid cell);
  Rgrid.set_weight grid cell 3.5;
  Alcotest.(check (float 1e-9)) "updated" 3.5 (Rgrid.weight grid cell)

let test_grid_we_validation () =
  let chip = chip_of (1, 0, 0, 0) in
  Alcotest.check_raises "negative we"
    (Invalid_argument "Rgrid.create: negative w_e") (fun () ->
      ignore (Rgrid.create ~we:(-1.) chip))

let test_conflict_free_overlap () =
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  Rgrid.add_occupation grid cell
    { Rgrid.interval = Interval.make 0. 5.; fluid = easy };
  Alcotest.(check bool) "overlap rejected" false
    (Rgrid.conflict_free grid cell (Interval.make 4. 6.) easy);
  Alcotest.(check bool) "same fluid immediately after" true
    (Rgrid.conflict_free grid cell (Interval.make 5. 6.) easy);
  (* A different fluid needs the residue washed first (0.2 s for easy). *)
  Alcotest.(check bool) "different fluid too soon" false
    (Rgrid.conflict_free grid cell (Interval.make 5.05 6.) hard);
  Alcotest.(check bool) "different fluid after wash" true
    (Rgrid.conflict_free grid cell (Interval.make 5.3 6.) hard)

let test_conflict_free_blocked () =
  let chip = chip_of (1, 0, 0, 0) in
  let grid = Rgrid.create ~we chip in
  let blocked_cell = List.hd (Chip.blocked_cells chip) in
  Alcotest.(check bool) "blocked cell unusable" false
    (Rgrid.conflict_free grid blocked_cell (Interval.make 0. 1.) easy)

let test_required_delay () =
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  Rgrid.add_occupation grid cell
    { Rgrid.interval = Interval.make 0. 5.; fluid = hard };
  let iv = Interval.make 1. 3. in
  let d = Rgrid.required_delay grid cell iv easy in
  Alcotest.(check bool) "delay positive" true (d > 0.);
  Alcotest.(check bool) "shifted window is free" true
    (Rgrid.conflict_free grid cell (Interval.shift iv d) easy)

let test_wash_debt () =
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  Rgrid.add_occupation grid cell
    { Rgrid.interval = Interval.make 0. 5.; fluid = hard };
  Alcotest.(check (float 1e-6)) "debt = hard wash"
    (Fluid.wash_time hard)
    (Rgrid.wash_debt grid cell ~at:20. easy);
  Alcotest.(check (float 1e-9)) "same fluid no debt" 0.
    (Rgrid.wash_debt grid cell ~at:20. hard);
  Alcotest.(check (float 1e-9)) "clean cell no debt" 0.
    (Rgrid.wash_debt grid (1, 0) ~at:20. easy)

let test_neighbours () =
  let grid = grid_of (1, 0, 0, 0) in
  Alcotest.(check int) "corner has 2" 2
    (List.length (Rgrid.neighbours grid (0, 0)));
  Alcotest.(check int) "interior has 4" 4
    (List.length (Rgrid.neighbours grid (5, 5)))

let test_required_delay_fuel () =
  (* Adversarial cascade: occupations spaced so that every settle jump
     lands inside the next one, forcing one iteration per occupation.
     The fuel budget (n + 2) must still settle the query — each
     occupation can trigger at most one jump, because the shift moves
     the window past its wash horizon — and the result must match the
     reference fold and actually be conflict-free. *)
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  let n = 10 in
  for k = 0 to n - 1 do
    let lo = float_of_int k *. 1.25 in
    Rgrid.add_occupation grid cell
      { Rgrid.interval = Interval.make lo (lo +. 1.);
        fluid = (if k mod 2 = 0 then easy else hard) }
  done;
  let iv = Interval.make 0. 0.5 in
  let d = Rgrid.required_delay grid cell iv easy in
  Alcotest.(check bool) "finite" true (Float.is_finite d);
  Alcotest.(check bool) "cascaded past the chain" true
    (d >= float_of_int (n - 1) *. 1.25);
  Alcotest.(check (float 0.)) "matches reference" d
    (Rgrid.required_delay_ref grid cell iv easy);
  Alcotest.(check bool) "settled window is free" true
    (Rgrid.conflict_free grid cell (Interval.shift iv d) easy)

let test_wash_debt_boundaries () =
  let grid = grid_of (1, 0, 0, 0) in
  let cell = (0, 0) in
  Rgrid.add_occupation grid cell
    { Rgrid.interval = Interval.make 0. 5.; fluid = hard };
  (* Exactly at the occupation end: the 1e-9 tolerance admits it. *)
  Alcotest.(check (float 0.)) "at = hi counts as prior"
    (Fluid.wash_time hard)
    (Rgrid.wash_debt grid cell ~at:5. easy);
  (* Just before the end: not yet a prior. *)
  Alcotest.(check (float 0.)) "at < hi is not a prior" 0.
    (Rgrid.wash_debt grid cell ~at:4.999999 easy);
  (* Identical fluid never owes a wash, boundary or not. *)
  Alcotest.(check (float 0.)) "identical fluid at boundary" 0.
    (Rgrid.wash_debt grid cell ~at:5. hard);
  (* Tie on the interval end: the canonical list order (interval
     ascending, later insertions first among equals) picks the winner;
     the indexed and reference implementations must agree. *)
  Rgrid.add_occupation grid cell
    { Rgrid.interval = Interval.make 2. 5.; fluid = easy };
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) "tie matches reference"
        (Rgrid.wash_debt_ref grid cell ~at:6. f)
        (Rgrid.wash_debt grid cell ~at:6. f))
    [ easy; hard ]

(* --- A* --- *)

let free_grid () =
  (* A grid with a single tiny component in the corner leaves plenty of
     open space for path tests. *)
  grid_of (1, 0, 0, 0)

let test_astar_straight_line () =
  let grid = free_grid () in
  let usable xy = not (Rgrid.blocked grid xy) in
  match
    Astar.search grid ~src:(6, 6) ~dst:(10, 6) ~usable ~use_weights:false
  with
  | Some path ->
    Alcotest.(check int) "manhattan-optimal length" 5 (List.length path);
    Alcotest.(check bool) "starts at src" true (List.hd path = (6, 6));
    Alcotest.(check bool) "ends at dst" true
      (List.nth path (List.length path - 1) = (10, 6))
  | None -> Alcotest.fail "no path on free grid"

let test_astar_detour () =
  let grid = free_grid () in
  (* Wall off a vertical line except one doorway. *)
  let wall x = List.init (Rgrid.height grid) (fun y -> (x, y)) in
  let usable (cx, cy) =
    (not (Rgrid.blocked grid (cx, cy)))
    && not (List.mem (cx, cy) (List.filter (fun (_, y) -> y <> 0) (wall 8)))
  in
  match
    Astar.search grid ~src:(6, 6) ~dst:(10, 6) ~usable ~use_weights:false
  with
  | Some path ->
    Alcotest.(check bool) "goes through the doorway" true
      (List.mem (8, 0) path);
    Alcotest.(check bool) "longer than direct" true (List.length path > 5)
  | None -> Alcotest.fail "expected detour"

let test_astar_unreachable () =
  let grid = free_grid () in
  let usable (cx, _) = cx <> 8 && not (Rgrid.blocked grid (cx, 0)) in
  Alcotest.(check bool) "walled off" true
    (Astar.search grid ~src:(6, 6) ~dst:(10, 6) ~usable ~use_weights:false
     = None)

let test_astar_weights_steer () =
  let grid = free_grid () in
  (* Cheap corridor along y = 9; everything else keeps w_e = 10. *)
  for x = 0 to Rgrid.width grid - 1 do
    Rgrid.set_weight grid (x, 9) 0.1
  done;
  let usable xy = not (Rgrid.blocked grid xy) in
  match
    Astar.search grid ~src:(5, 9) ~dst:(11, 9) ~usable ~use_weights:true
  with
  | Some path ->
    Alcotest.(check bool) "stays in corridor" true
      (List.for_all (fun (_, y) -> y = 9) path)
  | None -> Alcotest.fail "no path"

let test_astar_multi_picks_nearest () =
  let grid = free_grid () in
  let usable xy = not (Rgrid.blocked grid xy) in
  match
    Astar.search_multi grid ~srcs:[ (6, 6) ]
      ~dsts:[ (11, 11); (8, 6) ]
      ~usable ~use_weights:false
  with
  | Some path ->
    Alcotest.(check bool) "reaches the near target" true
      (List.nth path (List.length path - 1) = (8, 6))
  | None -> Alcotest.fail "no path"

let test_astar_src_is_dst () =
  let grid = free_grid () in
  let usable xy = not (Rgrid.blocked grid xy) in
  match Astar.search grid ~src:(6, 6) ~dst:(6, 6) ~usable ~use_weights:false with
  | Some [ cell ] -> Alcotest.(check bool) "trivial path" true (cell = (6, 6))
  | Some p -> Alcotest.failf "expected singleton, got %d cells" (List.length p)
  | None -> Alcotest.fail "no trivial path"

let test_path_cost () =
  let grid = free_grid () in
  Alcotest.(check (float 1e-9)) "unweighted" 3.
    (Astar.path_cost grid ~use_weights:false [ (6, 6); (7, 6); (8, 6) ]);
  Alcotest.(check (float 1e-9)) "weighted" (3. +. (3. *. we))
    (Astar.path_cost grid ~use_weights:true [ (6, 6); (7, 6); (8, 6) ])

let test_astar_tie_breaking_deterministic () =
  (* A diagonal search on an open grid has many equal-cost paths; the
     search must pick the same one on every run, on a fresh grid, and
     with or without a shared heuristic-field cache (the open-queue
     tie-breaking depends only on the push sequence, which the BFS field
     preserves). *)
  let search ?field_cache grid =
    let usable xy = not (Rgrid.blocked grid xy) in
    match
      Astar.search_multi ?field_cache grid ~srcs:[ (5, 5) ]
        ~dsts:[ (11, 11); (11, 10) ]
        ~usable ~use_weights:false
    with
    | Some path -> path
    | None -> Alcotest.fail "no path on free grid"
  in
  let grid = free_grid () in
  let reference = search grid in
  for _ = 1 to 5 do
    Alcotest.(check bool) "stable across runs" true (search grid = reference)
  done;
  Alcotest.(check bool) "stable across grids" true
    (search (free_grid ()) = reference);
  let field_cache = Hashtbl.create 4 in
  Alcotest.(check bool) "cold cache identical" true
    (search ~field_cache grid = reference);
  Alcotest.(check bool) "warm cache identical" true
    (search ~field_cache grid = reference);
  Alcotest.(check int) "cache was shared" 1 (Hashtbl.length field_cache)

(* --- Routed helpers --- *)

let transport removal depart arrive : Types.transport =
  { edge = (0, 1); src = 0; dst = 1; removal; depart; arrive; fluid = easy }

let test_occupancy_no_cache () =
  let task =
    { Routed.transport = transport 3. 3. 5.; kind = Routed.Transport;
      path = [ (0, 0); (1, 0); (2, 0) ]; delay = 0.; pre_wash = 0.;
      washed_cells = 0 }
  in
  List.iter
    (fun (_, iv) ->
      Alcotest.(check (float 1e-9)) "full window lo" 3. (Interval.lo iv);
      Alcotest.(check (float 1e-9)) "full window hi" 5. (Interval.hi iv))
    (Routed.occupancy ~tc task)

let test_occupancy_with_cache () =
  let task =
    { Routed.transport = transport 1. 9. 11.; kind = Routed.Transport;
      path = [ (0, 0); (1, 0); (2, 0); (3, 0) ];
      delay = 0.; pre_wash = 0.; washed_cells = 0 }
  in
  (match Routed.occupancy ~tc task with
   | [ (_, src_iv); (_, park_iv); (_, mid_iv); (_, dst_iv) ] ->
     Alcotest.(check (float 1e-9)) "src released after sweep" 3.
       (Interval.hi src_iv);
     Alcotest.(check (float 1e-9)) "parking holds from removal" 1.
       (Interval.lo park_iv);
     Alcotest.(check (float 1e-9)) "parking holds to arrival" 11.
       (Interval.hi park_iv);
     Alcotest.(check (float 1e-9)) "downstream only final sweep" 9.
       (Interval.lo mid_iv);
     Alcotest.(check (float 1e-9)) "dst window" 9. (Interval.lo dst_iv)
   | _ -> Alcotest.fail "expected four cells")

let test_occupancy_delay_shifts () =
  let task =
    { Routed.transport = transport 3. 3. 5.; kind = Routed.Transport;
      path = [ (0, 0) ]; delay = 2.; pre_wash = 0.; washed_cells = 0 }
  in
  match Routed.occupancy ~tc task with
  | [ (_, iv) ] ->
    Alcotest.(check (float 1e-9)) "shifted lo" 5. (Interval.lo iv);
    Alcotest.(check (float 1e-9)) "shifted hi" 7. (Interval.hi iv)
  | _ -> Alcotest.fail "expected one cell"

let test_settle_delay_resolves () =
  let grid = free_grid () in
  let path = [ (6, 6); (7, 6) ] in
  Rgrid.add_occupation grid (7, 6)
    { Rgrid.interval = Interval.make 0. 10.; fluid = hard };
  let tr = transport 1. 1. 3. in
  match Routed.settle_delay grid ~tc tr ~src_ports:[ (6, 6) ] path with
  | Some d ->
    Alcotest.(check bool) "positive" true (d > 0.);
    List.iter
      (fun xy ->
        Alcotest.(check bool) "free after delay" true
          (Routed.usable grid ~tc tr ~delay:d ~src_ports:[ (6, 6) ] xy))
      path
  | None -> Alcotest.fail "expected a finite settle delay"

(* --- Router end-to-end --- *)

(* Replay a routing result on a fresh grid and verify every commit was
   conflict-free under the occupancy semantics. *)
let replay_conflict_free chip (result : Routed.result) =
  let grid = Rgrid.create ~we chip in
  List.for_all
    (fun (task : Routed.task) ->
      let ok =
        List.for_all
          (fun (xy, iv) ->
            Rgrid.conflict_free grid xy iv task.transport.fluid)
          (Routed.occupancy ~tc task)
      in
      Routed.commit grid ~tc task;
      ok)
    result.tasks

let test_router_routes_all () =
  List.iter
    (fun index ->
      let sched, chip, result = routed_instance index in
      let transports =
        List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
          result.tasks
      in
      Alcotest.(check int) "all transports routed"
        (Mfb_schedule.Metrics.transport_count sched)
        (List.length transports);
      Alcotest.(check int) "no unresolved" 0 result.unresolved;
      Alcotest.(check bool) "replay conflict-free" true
        (replay_conflict_free chip result))
    [ 0; 1; 2; 3 ]

let test_router_paths_connect_ports () =
  let sched, _chip, result = routed_instance 2 in
  ignore sched;
  List.iter
    (fun (task : Routed.task) ->
      if task.kind <> Routed.Transport then () else
      let tr = task.transport in
      let grid = result.grid in
      let first = List.hd task.path in
      let last = List.nth task.path (List.length task.path - 1) in
      Alcotest.(check bool) "starts at a src port" true
        (List.mem first (Rgrid.ports grid tr.src));
      Alcotest.(check bool) "ends at a dst port" true
        (List.mem last (Rgrid.ports grid tr.dst));
      (* Consecutive path cells are 4-adjacent. *)
      let rec adjacent = function
        | (x1, y1) :: (((x2, y2) :: _) as rest) ->
          abs (x1 - x2) + abs (y1 - y2) = 1 && adjacent rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) "path connected" true (adjacent task.path))
    result.tasks

let test_router_channel_length () =
  let _, _, result = routed_instance 2 in
  let distinct = List.length (Rgrid.used_cells result.grid) in
  Alcotest.(check (float 1e-9)) "distinct cells x pitch"
    (float_of_int distinct *. Routed.pitch_mm)
    result.total_channel_length_mm

let test_router_weight_update_effect () =
  let _, _, updated = routed_instance ~weight_update:true 2 in
  let _, _, frozen = routed_instance ~weight_update:false 2 in
  (* With updates some routed cell must carry a non-w_e weight. *)
  let some_changed =
    List.exists
      (fun xy -> Rgrid.weight updated.grid xy <> we)
      (Rgrid.used_cells updated.grid)
  in
  let none_changed =
    List.for_all
      (fun xy -> Rgrid.weight frozen.grid xy = we)
      (Rgrid.used_cells frozen.grid)
  in
  Alcotest.(check bool) "weights updated" true some_changed;
  Alcotest.(check bool) "ablation keeps w_e" true none_changed

let test_router_tc_validation () =
  let chip = chip_of (1, 0, 0, 0) in
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  Alcotest.check_raises "tc" (Invalid_argument "Router.route: tc must be positive")
    (fun () -> ignore (Router.route ~we ~tc:0. chip sched))

(* --- I/O dispensing and waste routing --- *)

let io_instance index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  let nets =
    Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4 (Mfb_place.Net.of_schedule sched)
  in
  let placed =
    Mfb_place.Annealer.place
      ~params:{ Mfb_place.Annealer.default_params with t0 = 100.; i_max = 40 }
      ~rng:(Mfb_util.Rng.create 42) ~nets sched.components
  in
  (sched, placed.chip,
   Router.route ~route_io:true ~we ~tc placed.chip sched)

let test_io_templates_cover_sources_and_sinks () =
  let g, alloc = List.nth (Testkit.suite_instances ()) 2 (* CPA *) in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  let temps = Mfb_route.Io_router.templates ~tc sched in
  let dispense =
    List.length
      (List.filter (fun (_, k) -> k = Routed.Dispense) temps)
  in
  let waste =
    List.length (List.filter (fun (_, k) -> k = Routed.Waste) temps)
  in
  Alcotest.(check int) "one dispense per source"
    (List.length (Mfb_bioassay.Seq_graph.sources g))
    dispense;
  Alcotest.(check int) "one waste per sink"
    (List.length (Mfb_bioassay.Seq_graph.sinks g))
    waste

let test_io_routing_adds_tasks_and_stays_clean () =
  List.iter
    (fun index ->
      let sched, chip, result = io_instance index in
      let g = sched.Types.graph in
      let io_tasks =
        List.filter (fun (t : Routed.task) -> t.kind <> Routed.Transport)
          result.tasks
      in
      Alcotest.(check int)
        (Printf.sprintf "instance %d: io task count" index)
        (List.length (Mfb_bioassay.Seq_graph.sources g)
        + List.length (Mfb_bioassay.Seq_graph.sinks g))
        (List.length io_tasks);
      Alcotest.(check bool) "drc clean with io" true
        (Mfb_route.Drc.is_clean chip result);
      (* Replay cleanliness is guaranteed whenever no best-effort commit
         was needed. *)
      if result.unresolved = 0 then
        Alcotest.(check bool) "replay conflict-free" true
          (replay_conflict_free chip result))
    [ 0; 1; 2; 3 ]

let test_io_dispense_arrival () =
  let sched, _, result = io_instance 2 in
  List.iter
    (fun (t : Routed.task) ->
      match t.kind with
      | Routed.Dispense ->
        let op = fst t.transport.edge in
        Alcotest.(check (float 1e-6)) "arrives at op start"
          sched.Types.times.(op).start
          t.transport.arrive
      | Routed.Waste | Routed.Transport -> ())
    result.tasks

(* --- Hydraulics --- *)

let test_hydraulics_calibration () =
  let _, _, result = routed_instance 0 in
  let h = Mfb_route.Hydraulics.analyse ~tc result in
  List.iter
    (fun (t : Mfb_route.Hydraulics.task_check) ->
      (* Physical time scales linearly with cells; at the reference length
         the error is exactly zero. *)
      Alcotest.(check (float 1e-9)) "linear model"
        (tc *. float_of_int t.cells
        /. float_of_int Mfb_route.Hydraulics.reference_cells)
        t.physical_time;
      if t.cells = Mfb_route.Hydraulics.reference_cells then
        Alcotest.(check (float 1e-9)) "zero at reference" 0. t.relative_error)
    h.tasks;
  Alcotest.(check bool) "margin at least 1" true (h.pressure_margin >= 1.);
  Alcotest.(check bool) "worst underestimate non-negative" true
    (h.worst_underestimate >= 0.)

let test_hydraulics_ignores_io () =
  let _, _, result = io_instance 0 in
  let h = Mfb_route.Hydraulics.analyse ~tc result in
  let transports =
    List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
      result.tasks
  in
  Alcotest.(check int) "inter-component transports only"
    (List.length transports)
    (List.length h.tasks)

(* --- Defect repair --- *)

let channel_outcome = function
  | Mfb_route.Repair.Channel o -> o
  | Mfb_route.Repair.Component_fault _ ->
    Alcotest.fail "expected a channel defect, got a component fault"

let test_repair_unused_cell_is_free () =
  let sched, chip, result = routed_instance 0 in
  let grid = result.grid in
  let used = Mfb_route.Rgrid.used_cells grid in
  let free =
    let rec scan x y =
      if y >= chip.Chip.height then Alcotest.fail "no free cell"
      else if x >= chip.Chip.width then scan 0 (y + 1)
      else if
        (not (Mfb_route.Rgrid.blocked grid (x, y)))
        && not (List.mem (x, y) used)
      then (x, y)
      else scan (x + 1) y
    in
    scan 0 0
  in
  let outcome =
    channel_outcome
      (Mfb_route.Repair.inject ~we ~tc chip sched result ~defect:free)
  in
  Alcotest.(check int) "nothing affected" 0 outcome.affected;
  Alcotest.(check bool) "survives" true outcome.survived

let test_repair_component_cell_is_component_fault () =
  (* A defect on a component footprint is valid field data — a dead
     component, not a channel fault — and must come back as a structured
     [Component_fault] naming the owner, never as an exception. *)
  let sched, chip, result = routed_instance 0 in
  let blocked_cell = List.hd (Chip.blocked_cells chip) in
  (match
     Mfb_route.Repair.inject ~we ~tc chip sched result ~defect:blocked_cell
   with
   | Mfb_route.Repair.Component_fault { component } ->
     (match Mfb_route.Repair.owner chip blocked_cell with
      | Some c -> Alcotest.(check int) "fault names the owner" c component
      | None -> Alcotest.fail "blocked cell has no owning component")
   | Mfb_route.Repair.Channel _ ->
     Alcotest.fail "footprint defect reported as a channel defect")

let test_repair_cells_row_major () =
  (* The shared channel-cell enumeration is row-major and contains
     exactly the unblocked cells. *)
  let _, chip, result = routed_instance 0 in
  let cells = Mfb_route.Repair.cells chip in
  let sorted =
    List.sort
      (fun (x1, y1) (x2, y2) ->
        let c = compare y1 y2 in
        if c <> 0 then c else compare x1 x2)
      cells
  in
  Alcotest.(check bool) "row-major order" true (cells = sorted);
  List.iter
    (fun cell ->
      Alcotest.(check bool) "channel cells are unblocked" false
        (Mfb_route.Rgrid.blocked result.grid cell))
    cells;
  let expected =
    chip.Chip.width * chip.Chip.height
    - List.length
        (List.sort_uniq compare (Chip.blocked_cells chip))
  in
  Alcotest.(check int) "covers every channel cell" expected
    (List.length cells)

let test_repair_last_task_path_defect () =
  (* A defect on the committed path of the last routed task must count
     that task as affected: repair sees every committed path, including
     the final one (an off-by-one here would silently pass defects
     through the tail of the routing order). *)
  let sched, chip, result = routed_instance 0 in
  (match List.rev result.tasks with
   | [] -> Alcotest.fail "instance routed no tasks"
   | (last : Routed.task) :: _ ->
     let defect = List.nth last.path (List.length last.path / 2) in
     let outcome =
       channel_outcome
         (Mfb_route.Repair.inject ~we ~tc chip sched result ~defect)
     in
     Alcotest.(check bool) "defect recorded" true (outcome.defect = defect);
     Alcotest.(check bool) "last task is affected" true
       (outcome.affected >= 1);
     Alcotest.(check bool) "repaired bounded by affected" true
       (outcome.repaired <= outcome.affected))

let test_repair_unoccupied_cell_is_noop () =
  (* A defect on a routable cell no occupation ever touches is a pure
     no-op: nothing affected, nothing repaired, design survives. *)
  let sched, chip, result = routed_instance 0 in
  let grid = result.grid in
  let used = Mfb_route.Rgrid.used_cells grid in
  let on_some_path (x, y) =
    List.exists
      (fun (t : Routed.task) -> List.mem (x, y) t.path)
      result.tasks
  in
  let free =
    let rec scan x y =
      if y >= chip.Chip.height then Alcotest.fail "no unoccupied cell"
      else if x >= chip.Chip.width then scan 0 (y + 1)
      else if
        (not (Mfb_route.Rgrid.blocked grid (x, y)))
        && (not (List.mem (x, y) used))
        && not (on_some_path (x, y))
      then (x, y)
      else scan (x + 1) y
    in
    scan 0 0
  in
  let outcome =
    channel_outcome
      (Mfb_route.Repair.inject ~we ~tc chip sched result ~defect:free)
  in
  Alcotest.(check int) "affected" 0 outcome.affected;
  Alcotest.(check int) "repaired" 0 outcome.repaired;
  Alcotest.(check bool) "survived" true outcome.survived

let test_repair_yield_bounds () =
  List.iter
    (fun index ->
      let sched, chip, result = routed_instance index in
      let y =
        Mfb_route.Repair.single_defect_yield ~we ~tc chip sched result
      in
      Alcotest.(check bool) "yield in [0,1]" true
        (0. <= y.yield && y.yield <= 1.);
      Alcotest.(check bool) "survived <= tested" true
        (y.survived <= y.cells_tested);
      (match y.worst with
       | Some o ->
         Alcotest.(check bool) "worst really failed" false o.survived;
         Alcotest.(check bool) "worst repaired < affected" true
           (o.repaired < o.affected)
       | None ->
         Alcotest.(check int) "perfect yield" y.cells_tested y.survived))
    [ 0; 1 ]

(* --- Determinism of the full routing stage --- *)

let test_router_deterministic () =
  let _, _, a = routed_instance 4 in
  let _, _, b = routed_instance 4 in
  Alcotest.(check (float 1e-9)) "channel length stable"
    a.total_channel_length_mm b.total_channel_length_mm;
  Alcotest.(check (float 1e-9)) "delays stable" a.total_delay b.total_delay;
  Alcotest.(check (float 1e-9)) "wash stable" a.total_channel_wash
    b.total_channel_wash;
  List.iter2
    (fun (x : Routed.task) (y : Routed.task) ->
      Alcotest.(check bool) "paths identical" true (x.path = y.path))
    a.tasks b.tasks

(* --- Negotiated (PathFinder-style) router --- *)

let negotiated_instance index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  let nets =
    Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4 (Mfb_place.Net.of_schedule sched)
  in
  let placed =
    Mfb_place.Annealer.place
      ~params:{ Mfb_place.Annealer.default_params with t0 = 100.; i_max = 40 }
      ~rng:(Mfb_util.Rng.create 42) ~nets sched.components
  in
  (sched, placed.chip,
   Mfb_route.Negotiated_router.route ~we ~tc placed.chip sched)

let test_negotiated_routes_all () =
  List.iter
    (fun index ->
      let sched, chip, result = negotiated_instance index in
      Alcotest.(check int)
        (Printf.sprintf "instance %d: all transports" index)
        (Mfb_schedule.Metrics.transport_count sched)
        (List.length
           (List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
              result.tasks));
      Alcotest.(check bool) "replay conflict-free" true
        (replay_conflict_free chip result);
      Alcotest.(check bool) "drc clean" true
        (Mfb_route.Drc.is_clean chip result))
    [ 0; 2; 4 ]

let test_negotiated_deterministic () =
  let _, _, a = negotiated_instance 3 in
  let _, _, b = negotiated_instance 3 in
  Alcotest.(check (float 1e-9)) "same channel length"
    a.total_channel_length_mm b.total_channel_length_mm;
  Alcotest.(check (float 1e-9)) "same delay" a.total_delay b.total_delay

let test_negotiated_validation () =
  let chip = chip_of (1, 0, 0, 0) in
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Mfb_schedule.Dcsa_scheduler.schedule ~tc g alloc in
  Alcotest.check_raises "tc"
    (Invalid_argument "Negotiated_router.route: tc must be positive")
    (fun () ->
      ignore (Mfb_route.Negotiated_router.route ~we ~tc:0. chip sched))

(* --- Baseline router --- *)

let baseline_instance index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let sched = Mfb_schedule.Engine.run ~case1:false ~tc g alloc in
  let nets = Mfb_place.Energy.uniform (Mfb_place.Net.of_schedule sched) in
  let chip = Mfb_place.Greedy_place.place ~nets sched.components in
  (sched, chip, Baseline_router.route ~we ~tc chip sched)

let test_baseline_router_completes () =
  List.iter
    (fun index ->
      let sched, _, result = baseline_instance index in
      Alcotest.(check int) "all transports routed"
        (Mfb_schedule.Metrics.transport_count sched)
        (List.length
           (List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
              result.tasks));
      Alcotest.(check bool) "delays non-negative" true
        (List.for_all (fun (t : Routed.task) -> t.delay >= 0.) result.tasks))
    [ 0; 1; 2; 3 ]

let test_baseline_router_metrics_finite () =
  let _, _, result = baseline_instance 2 in
  Alcotest.(check bool) "finite wash" true
    (Float.is_finite result.total_channel_wash);
  Alcotest.(check bool) "finite delay" true
    (Float.is_finite result.total_delay);
  Alcotest.(check bool) "positive length" true
    (result.total_channel_length_mm > 0.)

(* --- DRC --- *)

let test_drc_clean_on_suite () =
  List.iter
    (fun index ->
      let _, chip, result = routed_instance index in
      let violations = Mfb_route.Drc.check chip result in
      if violations <> [] then
        Alcotest.failf "instance %d: %a" index Mfb_route.Drc.pp_violation
          (List.hd violations))
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_drc_clean_on_baseline () =
  List.iter
    (fun index ->
      let _, chip, result = baseline_instance index in
      Alcotest.(check bool)
        (Printf.sprintf "baseline %d clean" index)
        true
        (Mfb_route.Drc.is_clean chip result))
    [ 0; 2; 4 ]

let test_drc_detects_overlapping_components () =
  let _, chip, result = routed_instance 0 in
  let bad = Mfb_place.Chip.copy chip in
  bad.places.(1) <- bad.places.(0);
  Alcotest.(check bool) "placement violation" true
    (List.exists
       (fun (v : Mfb_route.Drc.violation) -> v.rule = "placement")
       (Mfb_route.Drc.check bad result))

let test_drc_detects_broken_path () =
  let _, chip, result = routed_instance 0 in
  let broken =
    { result with
      tasks =
        (match result.tasks with
         | t :: rest -> { t with path = [ (1, 1); (5, 5) ] } :: rest
         | [] -> []) }
  in
  let rules =
    List.map (fun (v : Mfb_route.Drc.violation) -> v.rule)
      (Mfb_route.Drc.check chip broken)
  in
  Alcotest.(check bool) "path or port violation" true
    (List.mem "path" rules || List.mem "port" rules)

(* --- Wash-flush planning --- *)

let test_wash_plan_covers_dirty_tasks () =
  let _, _, result = routed_instance 2 in
  let plan = Mfb_route.Wash_plan.plan ~tc result in
  let dirty =
    List.filter (fun (t : Routed.task) -> t.pre_wash > 0.) result.tasks
  in
  Alcotest.(check int) "one flush per dirty task" (List.length dirty)
    (List.length plan.flushes);
  Alcotest.(check (float 1e-6)) "flush time = total channel wash"
    result.total_channel_wash plan.total_flush_time

let test_wash_plan_routes_reach_border () =
  let _, chip, result = routed_instance 2 in
  let plan = Mfb_route.Wash_plan.plan ~tc result in
  let on_border (x, y) =
    x = 0 || y = 0 || x = chip.Chip.width - 1 || y = chip.Chip.height - 1
  in
  List.iter
    (fun (f : Mfb_route.Wash_plan.flush) ->
      match f.route with
      | [] -> Alcotest.fail "empty flush route"
      | first :: rest ->
        let last = List.fold_left (fun _ xy -> xy) first rest in
        Alcotest.(check bool) "inlet on border" true (on_border first);
        Alcotest.(check bool) "outlet on border" true (on_border last);
        let rec connected = function
          | (x1, y1) :: (((x2, y2) :: _) as tl) ->
            abs (x1 - x2) + abs (y1 - y2) = 1 && connected tl
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "route connected" true (connected f.route))
    plan.flushes

let test_wash_plan_windows_end_at_entry () =
  let _, _, result = routed_instance 3 in
  let plan = Mfb_route.Wash_plan.plan ~tc result in
  List.iter
    (fun (f : Mfb_route.Wash_plan.flush) ->
      Alcotest.(check (float 1e-6)) "window duration = wash duration"
        f.duration
        (Interval.duration f.window))
    plan.flushes

let test_wash_plan_clean_design_empty () =
  (* PCR under our flow needs no channel washes at all. *)
  let _, _, result = routed_instance 0 in
  let plan = Mfb_route.Wash_plan.plan ~tc result in
  Alcotest.(check int) "interference-free" 0 plan.total_interferences;
  Alcotest.(check bool) "volume consistent" true
    (plan.buffer_volume_cells >= 0.)

let suites =
  [
    ( "route.rgrid",
      [
        Alcotest.test_case "blocked matches chip" `Quick
          test_grid_blocked_matches_chip;
        Alcotest.test_case "ports" `Quick test_grid_ports;
        Alcotest.test_case "weights" `Quick test_grid_weights;
        Alcotest.test_case "we validation" `Quick test_grid_we_validation;
        Alcotest.test_case "conflict_free" `Quick test_conflict_free_overlap;
        Alcotest.test_case "blocked cells unusable" `Quick
          test_conflict_free_blocked;
        Alcotest.test_case "required_delay" `Quick test_required_delay;
        Alcotest.test_case "wash_debt" `Quick test_wash_debt;
        Alcotest.test_case "neighbours" `Quick test_neighbours;
        Alcotest.test_case "required_delay fuel on cascades" `Quick
          test_required_delay_fuel;
        Alcotest.test_case "wash_debt boundaries" `Quick
          test_wash_debt_boundaries;
      ] );
    ( "route.astar",
      [
        Alcotest.test_case "straight line" `Quick test_astar_straight_line;
        Alcotest.test_case "detour" `Quick test_astar_detour;
        Alcotest.test_case "unreachable" `Quick test_astar_unreachable;
        Alcotest.test_case "weights steer" `Quick test_astar_weights_steer;
        Alcotest.test_case "multi-target nearest" `Quick
          test_astar_multi_picks_nearest;
        Alcotest.test_case "src = dst" `Quick test_astar_src_is_dst;
        Alcotest.test_case "path cost" `Quick test_path_cost;
        Alcotest.test_case "tie-breaking deterministic" `Quick
          test_astar_tie_breaking_deterministic;
      ] );
    ( "route.occupancy",
      [
        Alcotest.test_case "no cache" `Quick test_occupancy_no_cache;
        Alcotest.test_case "with cache" `Quick test_occupancy_with_cache;
        Alcotest.test_case "delay shifts" `Quick test_occupancy_delay_shifts;
        Alcotest.test_case "settle_delay resolves" `Quick
          test_settle_delay_resolves;
      ] );
    ( "route.router",
      [
        Alcotest.test_case "routes all transports" `Quick
          test_router_routes_all;
        Alcotest.test_case "paths connect ports" `Quick
          test_router_paths_connect_ports;
        Alcotest.test_case "channel length" `Quick test_router_channel_length;
        Alcotest.test_case "weight update ablation" `Quick
          test_router_weight_update_effect;
        Alcotest.test_case "tc validation" `Quick test_router_tc_validation;
        Alcotest.test_case "deterministic" `Quick test_router_deterministic;
      ] );
    ( "route.io",
      [
        Alcotest.test_case "templates cover sources and sinks" `Quick
          test_io_templates_cover_sources_and_sinks;
        Alcotest.test_case "io routing clean" `Quick
          test_io_routing_adds_tasks_and_stays_clean;
        Alcotest.test_case "dispense arrives at start" `Quick
          test_io_dispense_arrival;
      ] );
    ( "route.hydraulics",
      [
        Alcotest.test_case "calibration" `Quick test_hydraulics_calibration;
        Alcotest.test_case "ignores io" `Quick test_hydraulics_ignores_io;
      ] );
    ( "route.repair",
      [
        Alcotest.test_case "unused cell free" `Quick
          test_repair_unused_cell_is_free;
        Alcotest.test_case "component cell is a component fault" `Quick
          test_repair_component_cell_is_component_fault;
        Alcotest.test_case "cells is row-major" `Quick
          test_repair_cells_row_major;
        Alcotest.test_case "last task's path is repairable" `Quick
          test_repair_last_task_path_defect;
        Alcotest.test_case "unoccupied cell is a no-op" `Quick
          test_repair_unoccupied_cell_is_noop;
        Alcotest.test_case "yield bounds" `Quick test_repair_yield_bounds;
      ] );
    ( "route.negotiated",
      [
        Alcotest.test_case "routes all" `Quick test_negotiated_routes_all;
        Alcotest.test_case "deterministic" `Quick
          test_negotiated_deterministic;
        Alcotest.test_case "validation" `Quick test_negotiated_validation;
      ] );
    ( "route.baseline",
      [
        Alcotest.test_case "completes" `Quick test_baseline_router_completes;
        Alcotest.test_case "metrics finite" `Quick
          test_baseline_router_metrics_finite;
      ] );
    ( "route.drc",
      [
        Alcotest.test_case "suite clean" `Quick test_drc_clean_on_suite;
        Alcotest.test_case "baseline clean" `Quick test_drc_clean_on_baseline;
        Alcotest.test_case "detects overlap" `Quick
          test_drc_detects_overlapping_components;
        Alcotest.test_case "detects broken path" `Quick
          test_drc_detects_broken_path;
      ] );
    ( "route.wash_plan",
      [
        Alcotest.test_case "covers dirty tasks" `Quick
          test_wash_plan_covers_dirty_tasks;
        Alcotest.test_case "routes reach border" `Quick
          test_wash_plan_routes_reach_border;
        Alcotest.test_case "windows end at entry" `Quick
          test_wash_plan_windows_end_at_entry;
        Alcotest.test_case "clean design" `Quick
          test_wash_plan_clean_design_empty;
      ] );
  ]
