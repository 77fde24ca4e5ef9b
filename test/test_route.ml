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
module Telemetry = Mfb_util.Telemetry

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
  let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
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

(* [f] on cell coordinates, as the index predicate A* asks. *)
let cells grid f = Testkit.by_index ~w:(Rgrid.width grid) f

let free grid = cells grid (fun xy -> not (Rgrid.blocked grid xy))

let test_astar_straight_line () =
  let grid = free_grid () in
  let usable = free grid in
  match
    Astar.search_multi grid ~srcs:[ (6, 6) ] ~dsts:[ (10, 6) ]
      ~usable ~use_weights:false
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
  let door_wall = List.filter (fun (_, y) -> y <> 0) (wall 8) in
  let usable =
    cells grid (fun xy ->
        (not (Rgrid.blocked grid xy)) && not (List.mem xy door_wall))
  in
  match
    Astar.search_multi grid ~srcs:[ (6, 6) ] ~dsts:[ (10, 6) ]
      ~usable ~use_weights:false
  with
  | Some path ->
    Alcotest.(check bool) "goes through the doorway" true
      (List.mem (8, 0) path);
    Alcotest.(check bool) "longer than direct" true (List.length path > 5)
  | None -> Alcotest.fail "expected detour"

let test_astar_unreachable () =
  let grid = free_grid () in
  let usable =
    cells grid (fun (cx, _) -> cx <> 8 && not (Rgrid.blocked grid (cx, 0)))
  in
  Alcotest.(check bool) "walled off" true
    (Astar.search_multi grid ~srcs:[ (6, 6) ] ~dsts:[ (10, 6) ]
       ~usable ~use_weights:false
     = None)

let test_astar_weights_steer () =
  let grid = free_grid () in
  (* Cheap corridor along y = 9; everything else keeps w_e = 10. *)
  for x = 0 to Rgrid.width grid - 1 do
    Rgrid.set_weight grid (x, 9) 0.1
  done;
  let usable = free grid in
  match
    Astar.search_multi grid ~srcs:[ (5, 9) ] ~dsts:[ (11, 9) ]
      ~usable ~use_weights:true
  with
  | Some path ->
    Alcotest.(check bool) "stays in corridor" true
      (List.for_all (fun (_, y) -> y = 9) path)
  | None -> Alcotest.fail "no path"

let test_astar_multi_picks_nearest () =
  let grid = free_grid () in
  let usable = free grid in
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
  let usable = free grid in
  match
    Astar.search_multi grid ~srcs:[ (6, 6) ] ~dsts:[ (6, 6) ] ~usable
      ~use_weights:false
  with
  | Some [ cell ] -> Alcotest.(check bool) "trivial path" true (cell = (6, 6))
  | Some p -> Alcotest.failf "expected singleton, got %d cells" (List.length p)
  | None -> Alcotest.fail "no trivial path"

(* A search whose source or destination is walled into a two-cell
   pocket ends after two pops, whichever side is walled in: on the
   source side the open list empties, on the destination side the flood
   runs dry; the flood steps once per pop until then.  The search still
   counts as an A* search. *)
let walled_in_search walled =
  let grid = free_grid () in
  let inside = (6, 6) and outside = (11, 11) in
  let pocket = [ inside; (7, 6) ] in
  let near (x, y) =
    List.exists (fun (px, py) -> abs (x - px) + abs (y - py) <= 1) pocket
  in
  let usable =
    cells grid (fun xy ->
        (not (Rgrid.blocked grid xy)) && (List.mem xy pocket || not (near xy)))
  in
  let srcs, dsts =
    match walled with
    | `Source -> ([ inside ], [ outside ])
    | `Destination -> ([ outside ], [ inside ])
  in
  let stats = Astar.stats () in
  Test_util.with_fake_sink (fun sink ->
      Alcotest.(check bool) "no path" true
        (Astar.search_multi ~stats grid ~srcs ~dsts ~usable ~use_weights:true
         = None);
      let count = Telemetry.counter_total sink ~cat:"route" in
      Alcotest.(check int) "one A* search" 1 (count "astar.searches");
      Alcotest.(check int) "two pops" 2 stats.pops;
      Alcotest.(check int) "two flood visits" 2 (count "flood.visits"))

let test_astar_walled_in_source () = walled_in_search `Source
let test_astar_walled_in_destination () = walled_in_search `Destination

let test_path_cost () =
  let grid = free_grid () in
  Alcotest.(check (float 1e-9)) "unweighted" 3.
    (Astar.path_cost grid ~use_weights:false [ (6, 6); (7, 6); (8, 6) ]);
  Alcotest.(check (float 1e-9)) "weighted" (3. +. (3. *. we))
    (Astar.path_cost grid ~use_weights:true [ (6, 6); (7, 6); (8, 6) ])

let test_astar_tie_breaking_deterministic () =
  (* A diagonal search on an open grid has many equal-cost paths; the
     search must pick the same one on every run and on a fresh grid (the
     open-queue tie-breaking depends only on the push sequence). *)
  let search grid =
    match
      Astar.search_multi grid ~srcs:[ (5, 5) ] ~dsts:[ (11, 11); (11, 10) ]
        ~usable:(free grid) ~use_weights:false
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
    (search (free_grid ()) = reference)

(* Searches share one scratch per domain, grown to the largest grid
   seen, whose stale entries a later search must never read. *)
let bare_grid w h =
  Rgrid.create ~we
    { Chip.width = w; height = h; components = [||]; places = [||] }

let effort_search grid ~srcs ~dsts ~usable =
  let stats = Astar.stats () in
  let path = Astar.search_multi ~stats grid ~srcs ~dsts ~usable ~use_weights:true in
  (path, (stats.pops, stats.pushes, stats.expansions))

let test_astar_scratch_across_sizes () =
  let big = grid_of (4, 2, 2, 2) and small = bare_grid 5 4 in
  for i = 0 to (Rgrid.width big * Rgrid.height big) - 1 do
    let xy = (i mod Rgrid.width big, i / Rgrid.width big) in
    Rgrid.set_weight big xy (0.5 *. float_of_int (i * 7 mod 11))
  done;
  let big_search () =
    effort_search big ~srcs:(Rgrid.ports big 0) ~dsts:(Rgrid.ports big 6)
      ~usable:(free big)
  in
  let small_search () =
    effort_search small ~srcs:[ (0, 0) ] ~dsts:[ (4, 3) ]
      ~usable:(cells small (fun (x, y) -> x <> 2 || y = 3))
  in
  (* A fresh domain starts with an empty scratch. *)
  let fresh f = Domain.join (Domain.spawn f) in
  let first, between, again =
    fresh (fun () ->
        let first = big_search () in
        let between = small_search () in
        (first, between, big_search ()))
  in
  Alcotest.(check bool) "big grid routed" true (fst first <> None);
  Alcotest.(check bool) "big grid: same path and effort" true (first = again);
  Alcotest.(check bool) "small grid as on a fresh domain" true
    (between = fresh small_search);
  Alcotest.(check bool) "small grid path least-cost" true
    (Testkit.search_agrees small ~usable:(fun (x, y) -> x <> 2 || y = 3)
       ~use_weights:true [ (0, 0) ] [ (4, 3) ] (fst between))

(* A [usable] that runs a search of its own, on a larger grid: the inner
   search must not disturb the outer one's state, and both must answer
   correctly.  The inner grid has a wall along row 10 with a doorway at
   x = 9, so the outer grid gets a wall along row 6 with a doorway at
   x = 5. *)
let test_astar_reentrant_usable () =
  let outer = bare_grid 12 12 and inner = bare_grid 20 20 in
  for i = 0 to (12 * 12) - 1 do
    Rgrid.set_weight outer (i mod 12, i / 12) (0.5 *. float_of_int (i * 5 mod 7))
  done;
  let inner_usable (x, y) = y <> 10 || x = 9 in
  let answers = Hashtbl.create 64 and consistent = ref true in
  let usable (x, y) =
    let dst = (x + 4, y + 4) in
    let answer =
      Astar.search_multi inner ~srcs:[ (0, 0) ] ~dsts:[ dst ]
        ~usable:(cells inner inner_usable) ~use_weights:false
    in
    (match Hashtbl.find_opt answers dst with
     | Some earlier -> if earlier <> answer then consistent := false
     | None -> Hashtbl.add answers dst answer);
    answer <> None
  in
  let srcs = [ (0, 0) ] and dsts = [ (11, 11) ] in
  let answer =
    Astar.search_multi outer ~srcs ~dsts ~usable:(cells outer usable)
      ~use_weights:true
  in
  Alcotest.(check bool) "outer path through the doorway" true
    (match answer with Some path -> List.mem (5, 6) path | None -> false);
  Alcotest.(check bool) "outer answer least-cost" true
    (Testkit.search_agrees outer ~usable ~use_weights:true srcs dsts answer);
  Alcotest.(check bool) "inner answers repeat" true !consistent;
  Hashtbl.iter
    (fun dst answer ->
      if not
           (Testkit.search_agrees inner ~usable:inner_usable ~use_weights:false
              [ (0, 0) ] [ dst ] answer)
      then Alcotest.failf "inner search to (%d, %d) wrong" (fst dst) (snd dst))
    answers

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
  match Routed.settle_delay grid tr ~src_ports:[ (6, 6) ] path with
  | Some d ->
    Alcotest.(check bool) "positive" true (d > 0.);
    let usable = Routed.usable grid tr ~delay:d ~src_ports:[ (6, 6) ] in
    List.iter
      (fun (x, y) ->
        Alcotest.(check bool) "free after delay" true
          (usable ((y * Rgrid.width grid) + x)))
      path
  | None -> Alcotest.fail "expected a finite settle delay"

(* --- Router end-to-end --- *)

(* The audit of a routing result with the schedule it routed:
   [Config.default] has this file's [tc] and [we]. *)
let audit sched chip result =
  Mfb_repair.Audit.check ~config:Mfb_core.Config.default sched chip result

let test_router_routes_all () =
  List.iter
    (fun index ->
      let sched, chip, result = routed_instance index in
      let transports =
        List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
          result.tasks
      in
      Alcotest.(check int) "all transports routed"
        (List.length sched.Mfb_schedule.Types.transports)
        (List.length transports);
      Alcotest.(check int) "no unresolved" 0 result.unresolved;
      Alcotest.(check (list string)) "audit clean" []
        (audit sched chip result))
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
  Alcotest.(check (float 1e-9)) "distinct cells x 10 mm pitch"
    (float_of_int distinct *. 10.)
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
  let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
  Alcotest.check_raises "tc" (Invalid_argument "Router.route: tc must be positive")
    (fun () -> ignore (Router.route ~we ~tc:0. chip sched))

(* --- I/O dispensing and waste routing --- *)

let io_instance index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
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
  let sched, _, result = io_instance 2 (* CPA *) in
  let g = sched.Types.graph in
  let count kind =
    List.length
      (List.filter (fun (t : Routed.task) -> t.kind = kind) result.tasks)
  in
  Alcotest.(check int) "one dispense per source"
    (List.length (Mfb_bioassay.Seq_graph.sources g))
    (count Routed.Dispense);
  Alcotest.(check int) "one waste per sink"
    (List.length (Mfb_bioassay.Seq_graph.sinks g))
    (count Routed.Waste)

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
        (Mfb_route.Drc.check chip result = []);
      (* Replay cleanliness is guaranteed whenever no best-effort commit
         was needed. *)
      if result.unresolved = 0 then
        Alcotest.(check (list string)) "audit clean" []
          (audit sched chip result))
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
      (* Physical time scales linearly with cells; at the 8-cell
         reference length the error is exactly zero. *)
      Alcotest.(check (float 1e-9)) "linear model"
        (tc *. float_of_int t.cells /. 8.)
        t.physical_time;
      if t.cells = 8 then
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
  let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
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
        (List.length sched.Mfb_schedule.Types.transports)
        (List.length
           (List.filter (fun (t : Routed.task) -> t.kind = Routed.Transport)
              result.tasks));
      Alcotest.(check (list string)) "audit clean" []
        (audit sched chip result);
      Alcotest.(check bool) "drc clean" true
        (Mfb_route.Drc.check chip result = []))
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
  let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
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
        (List.length sched.Mfb_schedule.Types.transports)
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
        let v = List.hd violations in
        Alcotest.failf "instance %d: [%s] %s" index v.rule v.message)
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_drc_clean_on_baseline () =
  List.iter
    (fun index ->
      let _, chip, result = baseline_instance index in
      Alcotest.(check bool)
        (Printf.sprintf "baseline %d clean" index)
        true
        (Mfb_route.Drc.check chip result = []))
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
        Alcotest.test_case "walled-in source" `Quick
          test_astar_walled_in_source;
        Alcotest.test_case "walled-in destination" `Quick
          test_astar_walled_in_destination;
        Alcotest.test_case "path cost" `Quick test_path_cost;
        Alcotest.test_case "tie-breaking deterministic" `Quick
          test_astar_tie_breaking_deterministic;
        Alcotest.test_case "scratch across grid sizes" `Quick
          test_astar_scratch_across_sizes;
        Alcotest.test_case "re-entrant usable" `Quick
          test_astar_reentrant_usable;
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
