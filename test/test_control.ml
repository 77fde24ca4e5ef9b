(* Tests for the control-layer substrate: valve placement, actuation
   timeline, and Hamming-distance multiplexing. *)

module Valve_map = Mfb_control.Valve_map
module Actuation = Mfb_control.Actuation
module Mux = Mfb_control.Mux

let tc = 2.0

let qtest ?(count = 100) name gen prop =
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let routing_of index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let r = Mfb_core.Flow.run g alloc in
  r.routing

(* --- Valve_map --- *)

let test_valves_exist_on_routed_designs () =
  List.iter
    (fun index ->
      let routing = routing_of index in
      let valves = Valve_map.of_routing routing in
      Alcotest.(check bool)
        (Printf.sprintf "instance %d has valves" index)
        true
        (Valve_map.count valves > 0))
    [ 0; 2; 4 ]

let test_valve_sites_unique_and_indexed () =
  let routing = routing_of 2 in
  let valves = Valve_map.of_routing routing in
  let sites = Valve_map.sites valves in
  Alcotest.(check int) "unique sites"
    (List.length sites)
    (List.length (List.sort_uniq compare sites));
  List.iteri
    (fun i xy ->
      Alcotest.(check (option int)) "dense index" (Some i)
        (Valve_map.index valves xy))
    sites;
  Alcotest.(check (option int)) "unknown cell" None
    (Valve_map.index valves (max_int, max_int))

let test_ports_are_valves () =
  let routing = routing_of 2 in
  let valves = Valve_map.of_routing routing in
  (* Both endpoints of every routed path carry an isolation valve. *)
  List.iter
    (fun (task : Mfb_route.Routed.task) ->
      match task.path with
      | [] -> Alcotest.fail "empty path"
      | first :: rest ->
        let last = List.fold_left (fun _ xy -> xy) first rest in
        Alcotest.(check bool) "entry valve" true
          (Valve_map.index valves first <> None);
        Alcotest.(check bool) "exit valve" true
          (Valve_map.index valves last <> None))
    routing.tasks

(* --- Actuation --- *)

let test_actuation_ordered_and_switching () =
  let routing = routing_of 2 in
  let valves = Valve_map.of_routing routing in
  let steps = Actuation.steps ~tc valves routing in
  Alcotest.(check bool) "non-empty" true (steps <> []);
  let rec ordered = function
    | (a : Actuation.step) :: (b :: _ as rest) ->
      a.time <= b.time && ordered rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "time-ordered" true (ordered steps);
  let rec no_dups = function
    | (a : Actuation.step) :: (b :: _ as rest) ->
      a.open_valves <> b.open_valves && no_dups rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "consecutive states differ" true (no_dups steps);
  Alcotest.(check bool) "switching positive" true
    (Actuation.valve_switching steps > 0)

let test_toggle_sequence_length () =
  let routing = routing_of 3 in
  let valves = Valve_map.of_routing routing in
  let steps = Actuation.steps ~tc valves routing in
  Alcotest.(check int) "toggles = switching count"
    (Actuation.valve_switching steps)
    (List.length (Actuation.toggle_sequence steps))

let test_actuation_empty_routing () =
  (* A schedule with no transports yields no meaningful actuation. *)
  let g =
    Mfb_bioassay.Seq_graph.create ~name:"solo"
      ~ops:
        [ Mfb_bioassay.Operation.make ~id:0 ~kind:Mix ~duration:3.
            ~output:(Mfb_bioassay.Fluid.of_palette 0) ]
      ~edges:[]
  in
  let alloc = Mfb_component.Allocation.of_vector (1, 0, 0, 0) in
  let r = Mfb_core.Flow.run ~route_io:false g alloc in
  let valves = Valve_map.of_routing r.routing in
  let steps = Actuation.steps ~tc valves r.routing in
  Alcotest.(check int) "no switching" 0 (Actuation.valve_switching steps)

(* --- Mux --- *)

let test_pins_needed () =
  Alcotest.(check int) "0" 0 (Mux.pins_needed 0);
  Alcotest.(check int) "1" 1 (Mux.pins_needed 1);
  Alcotest.(check int) "2" 1 (Mux.pins_needed 2);
  Alcotest.(check int) "3" 2 (Mux.pins_needed 3);
  Alcotest.(check int) "4" 2 (Mux.pins_needed 4);
  Alcotest.(check int) "5" 3 (Mux.pins_needed 5);
  Alcotest.(check int) "1024" 10 (Mux.pins_needed 1024);
  Alcotest.(check int) "1025" 11 (Mux.pins_needed 1025);
  Alcotest.check_raises "negative" (Invalid_argument "Mux.pins_needed: negative")
    (fun () -> ignore (Mux.pins_needed (-1)))

let is_permutation (a : Mux.assignment) =
  let arr = (a :> int array) in
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  sorted = Array.init (Array.length arr) Fun.id

let test_assignments_are_permutations () =
  let events = [ 0; 3; 1; 3; 2; 0; 4 ] in
  Alcotest.(check bool) "naive" true (is_permutation (Mux.naive ~n:5));
  Alcotest.(check bool) "greedy" true
    (is_permutation (Mux.greedy ~events ~n:5))

let test_greedy_validates_events () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mux.greedy: valve 5 outside 0..4") (fun () ->
      ignore (Mux.greedy ~events:[ 5 ] ~n:5))

let test_switching_cost_known () =
  (* Addresses 0,1,3: transitions 0->0 (0), 0->1 (1), 1->3 (1): total 2. *)
  let a = Mux.naive ~n:4 in
  Alcotest.(check int) "known cost" 2
    (Mux.switching_cost a ~events:[ 0; 1; 3 ])

let test_improvement_percent () =
  Alcotest.(check (float 1e-9)) "half" 50.
    (Mux.improvement_percent ~naive:10 ~optimized:5);
  Alcotest.(check (float 1e-9)) "zero naive" 0.
    (Mux.improvement_percent ~naive:0 ~optimized:0)

let prop_cost_non_negative_and_stutter_free =
  qtest "switching cost is non-negative and repeats cost nothing"
    QCheck2.Gen.(list_size (int_range 1 60) (int_bound 15))
    (fun events ->
      let n = 16 in
      let a = Mux.greedy ~events ~n in
      let cost = Mux.switching_cost a ~events in
      let last = List.nth events (List.length events - 1) in
      let stuttered = Mux.switching_cost a ~events:(events @ [ last ]) in
      cost >= 0 && stuttered = cost)

let prop_greedy_permutation =
  qtest "greedy always yields a permutation"
    QCheck2.Gen.(list_size (int_bound 40) (int_bound 9))
    (fun events ->
      is_permutation (Mux.greedy ~events ~n:10))

(* End-to-end: the optimization reduces pin switching on real designs. *)
let test_control_layer_end_to_end () =
  List.iter
    (fun index ->
      let routing = routing_of index in
      let valves = Valve_map.of_routing routing in
      let steps = Actuation.steps ~tc valves routing in
      let events = Actuation.toggle_sequence steps in
      let n = max 1 (Valve_map.count valves) in
      let naive = Mux.switching_cost (Mux.naive ~n) ~events in
      let optimized = Mux.switching_cost (Mux.greedy ~events ~n) ~events in
      Alcotest.(check bool)
        (Printf.sprintf "instance %d: optimized <= naive" index)
        true (optimized <= naive))
    [ 0; 1; 2; 3; 4 ]

(* --- Escape routing --- *)

let escape_of index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let r = Mfb_core.Flow.run g alloc in
  let valves = Valve_map.of_routing r.routing in
  (r, valves,
   Mfb_control.Escape.route ~width:r.chip.width ~height:r.chip.height valves)

let test_escape_reaches_edges () =
  let r, _, esc = escape_of 2 in
  let width = r.chip.width * 2 and height = r.chip.height * 2 in
  Alcotest.(check (list int)) "no congestion failures on CPA" [] esc.failed;
  List.iter
    (fun (_, path) ->
      match List.rev path with
      | [] -> Alcotest.fail "empty line"
      | (x, y) :: _ ->
        Alcotest.(check bool) "ends on the edge" true
          (x = 0 || y = 0 || x = width - 1 || y = height - 1))
    esc.lines

let test_escape_lines_disjoint () =
  let _, _, esc = escape_of 2 in
  let all_cells = List.concat_map snd esc.lines in
  Alcotest.(check int) "no two lines share a cell"
    (List.length all_cells)
    (List.length (List.sort_uniq compare all_cells))

let test_escape_one_pin_per_line () =
  let _, valves, esc = escape_of 2 in
  Alcotest.(check int) "pin per escaped valve" (List.length esc.lines)
    esc.pins;
  Alcotest.(check int) "every valve accounted for"
    (Valve_map.count valves)
    (List.length esc.lines + List.length esc.failed)

let test_escape_validation () =
  let _, valves, _ = escape_of 0 in
  Alcotest.check_raises "resolution"
    (Invalid_argument "Escape.route: resolution < 1") (fun () ->
      ignore (Mfb_control.Escape.route ~resolution:0 ~width:13 ~height:13 valves))

let test_escape_lines_connected () =
  let _, _, esc = escape_of 3 in
  List.iter
    (fun (_, path) ->
      let rec walk = function
        | (x1, y1) :: (((x2, y2) :: _) as rest) ->
          Alcotest.(check int) "4-adjacent steps" 1
            (abs (x1 - x2) + abs (y1 - y2));
          walk rest
        | [ _ ] | [] -> ()
      in
      walk path)
    esc.lines

let suites =
  [
    ( "control.valve_map",
      [
        Alcotest.test_case "valves exist" `Quick
          test_valves_exist_on_routed_designs;
        Alcotest.test_case "sites unique and indexed" `Quick
          test_valve_sites_unique_and_indexed;
        Alcotest.test_case "ports are valves" `Quick test_ports_are_valves;
      ] );
    ( "control.actuation",
      [
        Alcotest.test_case "ordered timeline" `Quick
          test_actuation_ordered_and_switching;
        Alcotest.test_case "toggle sequence" `Quick test_toggle_sequence_length;
        Alcotest.test_case "empty routing" `Quick test_actuation_empty_routing;
      ] );
    ( "control.mux",
      [
        Alcotest.test_case "pins_needed" `Quick test_pins_needed;
        Alcotest.test_case "permutations" `Quick
          test_assignments_are_permutations;
        Alcotest.test_case "event validation" `Quick
          test_greedy_validates_events;
        Alcotest.test_case "known cost" `Quick test_switching_cost_known;
        Alcotest.test_case "improvement percent" `Quick
          test_improvement_percent;
        prop_cost_non_negative_and_stutter_free;
        prop_greedy_permutation;
        Alcotest.test_case "end-to-end reduction" `Quick
          test_control_layer_end_to_end;
      ] );
    ( "control.escape",
      [
        Alcotest.test_case "reaches edges" `Quick test_escape_reaches_edges;
        Alcotest.test_case "lines disjoint" `Quick test_escape_lines_disjoint;
        Alcotest.test_case "one pin per line" `Quick
          test_escape_one_pin_per_line;
        Alcotest.test_case "validation" `Quick test_escape_validation;
        Alcotest.test_case "lines connected" `Quick
          test_escape_lines_connected;
      ] );
  ]
