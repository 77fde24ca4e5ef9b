(* Tests for the placement stage: chip model, nets, energy, the walk's
   moves,
   annealer (paper Alg. 2 lines 1-8) and the baseline placer. *)

module Chip = Mfb_place.Chip
module Net = Mfb_place.Net
module Energy = Mfb_place.Energy
module Walk = Mfb_place.Walk
module Annealer = Mfb_place.Annealer
module Greedy_place = Mfb_place.Greedy_place
module Allocation = Mfb_component.Allocation
module Rng = Mfb_util.Rng

let tc = 2.0

let qtest ?(count = 60) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let components_of vector = Array.of_list (Allocation.components (Allocation.of_vector vector))

let sched_of (g, alloc) = Mfb_schedule.Engine.run ~case1:true ~tc g alloc

(* --- Chip --- *)

let test_size_for_minimum () =
  let w, h = Chip.size_for (components_of (1, 0, 0, 0)) in
  Alcotest.(check bool) "at least 12x12" true (w >= 12 && h >= 12)

let test_scanline_legal () =
  List.iter
    (fun (g, alloc) ->
      let comps = Array.of_list (Allocation.components alloc) in
      let chip = Chip.scanline comps in
      Alcotest.(check bool)
        (Mfb_bioassay.Seq_graph.name g ^ " scanline legal")
        true (Chip.legal chip))
    (Testkit.suite_instances ())

let test_random_legal () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let chip = Chip.random rng (components_of (5, 2, 2, 2)) in
      Alcotest.(check bool)
        (Printf.sprintf "random placement legal (seed %d)" seed)
        true (Chip.legal chip))
    [ 1; 2; 3; 42; 1000 ]

let test_rotation_swaps_dims () =
  let comps = components_of (1, 1, 0, 0) in
  let chip = Chip.scanline comps in
  (* Make the mixer footprint asymmetric to observe the rotation. *)
  let chip =
    { chip with
      components =
        [| { chip.components.(0) with width = 4; height = 2 };
           chip.components.(1) |] }
  in
  let _, _, w0, h0 = Chip.footprint chip 0 in
  chip.places.(0) <- { (chip.places.(0)) with rotated = true };
  let _, _, w1, h1 = Chip.footprint chip 0 in
  Alcotest.(check (pair int int)) "swapped" (h0, w0) (w1, h1)

let test_manhattan_symmetric () =
  let chip = Chip.scanline (components_of (3, 0, 0, 0)) in
  Alcotest.(check (float 1e-9)) "symmetric" (Chip.manhattan chip 0 1)
    (Chip.manhattan chip 1 0);
  Alcotest.(check (float 1e-9)) "self distance" 0. (Chip.manhattan chip 2 2)

let test_blocked_cells_area () =
  let comps = components_of (2, 1, 0, 0) in
  let chip = Chip.scanline comps in
  (* Two 3x3 mixers + one 2x2 heater = 22 blocked cells. *)
  Alcotest.(check int) "area" 22 (List.length (Chip.blocked_cells chip))

let test_pair_legal_spacing () =
  let comps = components_of (2, 0, 0, 0) in
  let chip = Chip.scanline comps in
  chip.places.(0) <- { x = 1; y = 1; rotated = false };
  chip.places.(1) <- { x = 4; y = 1; rotated = false };
  (* Footprints touch without a gap: illegal under spacing 1. *)
  Alcotest.(check bool) "no gap" false (Chip.pair_legal chip 0 1);
  chip.places.(1) <- { x = 5; y = 1; rotated = false };
  Alcotest.(check bool) "one-cell gap" true (Chip.pair_legal chip 0 1)

let test_copy_independent () =
  let chip = Chip.scanline (components_of (2, 0, 0, 0)) in
  let dup = Chip.copy chip in
  dup.places.(0) <- { x = 99; y = 99; rotated = false };
  Alcotest.(check bool) "original untouched" true (chip.places.(0).x <> 99)

(* --- Net / connection priority --- *)

let test_nets_cover_transports () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 2) in
  let nets = Net.of_schedule sched in
  Alcotest.(check int) "task count = transports"
    (List.length sched.transports)
    (List.fold_left (fun acc (net : Net.t) -> acc + List.length net.tasks) 0
       nets);
  List.iter
    (fun (net : Net.t) ->
      Alcotest.(check bool) "normalised pair" true (net.a <= net.b))
    nets

let test_connection_priority_formula () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 2) in
  match Net.of_schedule sched with
  | [] -> Alcotest.fail "expected nets"
  | (net : Net.t) :: _ ->
    let manual =
      List.fold_left
        (fun acc (task : Net.task) ->
          acc +. (0.6 *. float_of_int task.concurrency)
          +. (0.4 *. task.wash_time))
        0. net.tasks
    in
    Alcotest.(check (float 1e-9)) "Eq. 4" manual
      (Net.connection_priority ~beta:0.6 ~gamma:0.4 net)

let test_uniform_energy_is_wirelength () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 3) in
  let nets = Energy.uniform (Net.of_schedule sched) in
  let chip = Chip.scanline sched.components in
  Alcotest.(check (float 1e-9)) "cp = 1 everywhere"
    (Energy.wirelength chip nets)
    (Energy.total chip nets)

let test_energy_zero_for_colocated () =
  (* A single net between two components: energy = mdis * cp. *)
  let sched = sched_of (List.hd (Testkit.suite_instances ())) in
  let nets = Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched) in
  let chip = Chip.scanline sched.components in
  let manual =
    List.fold_left
      (fun acc (n : Energy.weighted_net) ->
        acc +. (Chip.manhattan chip n.a n.b *. n.cp))
      0. nets
  in
  Alcotest.(check (float 1e-9)) "Eq. 3" manual (Energy.total chip nets)

(* --- Moves --- *)

let walk_of chip =
  Walk.create ~compaction_weight:0.01
    (Energy.index ~n_components:(Array.length chip.Chip.components) [])
    chip

let placed chip walk = { chip with Chip.places = Walk.places walk }

(* Every proposal leaves a legal placement, and a refused one leaves the
   placement as it was. *)
let prop_moves_preserve_legality =
  qtest "random moves keep the placement legal"
    QCheck2.Gen.(pair (int_bound 10000) (int_range 2 8))
    (fun (seed, n_mixers) ->
      let rng = Rng.create seed in
      let chip = Chip.random rng (components_of (n_mixers, 1, 1, 1)) in
      let walk = walk_of chip in
      let ok = ref true in
      for _ = 1 to 50 do
        let before = Walk.places walk in
        let applied = Walk.propose rng walk in
        if not (Chip.legal (placed chip walk)) then ok := false;
        if (not applied) && Walk.places walk <> before then ok := false
      done;
      !ok)

let test_move_undo_restores () =
  let rng = Rng.create 7 in
  let chip = Chip.random rng (components_of (4, 2, 0, 0)) in
  let walk = walk_of chip in
  let applied = ref 0 in
  for _ = 1 to 30 do
    if Walk.propose rng walk then begin
      incr applied;
      Walk.undo walk
    end
  done;
  Alcotest.(check bool) "some move applied" true (!applied > 0);
  Alcotest.(check bool) "placement restored after undo" true
    (Array.for_all2 (fun a b -> a = b) chip.places (Walk.places walk))

(* --- Annealer --- *)

let test_annealer_validation () =
  let nets = [] and comps = components_of (2, 0, 0, 0) in
  let bad params msg =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Annealer.place ~params ~rng:(Rng.create 1) ~nets comps))
  in
  bad { Annealer.default_params with alpha = 1.5 }
    "Annealer.place: alpha outside (0, 1)";
  bad { Annealer.default_params with i_max = 0 } "Annealer.place: i_max < 1";
  bad { Annealer.default_params with t0 = -1. }
    "Annealer.place: temperatures must satisfy 0 < t_min <= t0"

let fast_params = { Annealer.default_params with t0 = 100.; i_max = 30 }

let test_annealer_improves_and_legal () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 2) in
  let nets = Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched) in
  let result =
    Annealer.place ~params:fast_params ~rng:(Rng.create 42) ~nets
      sched.components
  in
  Alcotest.(check bool) "legal" true (Chip.legal result.chip);
  Alcotest.(check bool) "no worse than start" true
    (result.energy <= result.initial_energy +. 1e-9);
  Alcotest.(check (float 1e-6)) "energy consistent"
    (Annealer.objective result.chip nets)
    result.energy;
  Alcotest.(check bool) "attempted counted" true (result.attempted > 0)

let test_annealer_deterministic () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 3) in
  let nets = Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched) in
  let run () =
    (Annealer.place ~params:fast_params ~rng:(Rng.create 9) ~nets
       sched.components).energy
  in
  Alcotest.(check (float 1e-12)) "same seed, same energy" (run ()) (run ())

let test_annealer_default_params_match_paper () =
  let p = Annealer.default_params in
  Alcotest.(check (float 1e-12)) "T0" 10000. p.t0;
  Alcotest.(check (float 1e-12)) "Tmin" 1.0 p.t_min;
  Alcotest.(check (float 1e-12)) "alpha" 0.9 p.alpha;
  Alcotest.(check int) "Imax" 150 p.i_max

(* --- Force-directed placement --- *)

let test_force_place_legal_on_suite () =
  List.iter
    (fun instance ->
      let sched = sched_of instance in
      let nets =
        Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched)
      in
      let result = Mfb_place.Force_place.place ~nets sched.components in
      Alcotest.(check bool)
        (Mfb_bioassay.Seq_graph.name (fst instance) ^ " legal")
        true
        (Chip.legal result.chip);
      Alcotest.(check bool) "iterated" true (result.iterations > 0);
      Alcotest.(check (float 1e-6)) "energy consistent"
        (Annealer.objective result.chip nets)
        result.energy)
    (Testkit.suite_instances ())

let test_force_place_deterministic () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 4) in
  let nets = Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched) in
  let a = Mfb_place.Force_place.place ~nets sched.components in
  let b = Mfb_place.Force_place.place ~nets sched.components in
  Alcotest.(check (float 1e-12)) "same energy" a.energy b.energy;
  Alcotest.(check bool) "same placement" true (a.chip.places = b.chip.places)

let test_force_place_pulls_connected_pairs () =
  (* Two heavily-connected mixers among several must end up closer than
     the chip diagonal. *)
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 2) in
  let nets = Energy.weigh ~beta:0.6 ~gamma:0.4 (Net.of_schedule sched) in
  match List.sort (fun (a : Energy.weighted_net) b -> Float.compare b.cp a.cp) nets with
  | [] -> Alcotest.fail "expected nets"
  | heaviest :: _ ->
    let result = Mfb_place.Force_place.place ~nets sched.components in
    let d = Chip.manhattan result.chip heaviest.a heaviest.b in
    let diagonal =
      float_of_int (result.chip.width + result.chip.height)
    in
    Alcotest.(check bool) "heavy pair close" true (d < diagonal /. 2.)

(* --- Greedy (baseline) placement --- *)

let test_greedy_legal_and_deterministic () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 4) in
  let nets = Energy.uniform (Net.of_schedule sched) in
  let a = Greedy_place.place ~nets sched.components in
  let b = Greedy_place.place ~nets sched.components in
  Alcotest.(check bool) "legal" true (Chip.legal a);
  Alcotest.(check bool) "deterministic" true (a.places = b.places)

let test_greedy_no_worse_than_scanline () =
  let sched = sched_of (List.nth (Testkit.suite_instances ()) 4) in
  let nets = Energy.uniform (Net.of_schedule sched) in
  let corrected = Greedy_place.place ~nets sched.components in
  let scan = Chip.scanline sched.components in
  Alcotest.(check bool) "swaps only improve" true
    (Energy.wirelength corrected nets <= Energy.wirelength scan nets +. 1e-9)

let suites =
  [
    ( "place.chip",
      [
        Alcotest.test_case "size_for minimum" `Quick test_size_for_minimum;
        Alcotest.test_case "scanline legal" `Quick test_scanline_legal;
        Alcotest.test_case "random legal" `Quick test_random_legal;
        Alcotest.test_case "rotation swaps dims" `Quick
          test_rotation_swaps_dims;
        Alcotest.test_case "manhattan symmetric" `Quick
          test_manhattan_symmetric;
        Alcotest.test_case "blocked cells area" `Quick test_blocked_cells_area;
        Alcotest.test_case "pair spacing" `Quick test_pair_legal_spacing;
        Alcotest.test_case "copy independent" `Quick test_copy_independent;
      ] );
    ( "place.net",
      [
        Alcotest.test_case "nets cover transports" `Quick
          test_nets_cover_transports;
        Alcotest.test_case "Eq. 4 formula" `Quick
          test_connection_priority_formula;
        Alcotest.test_case "uniform = wirelength" `Quick
          test_uniform_energy_is_wirelength;
        Alcotest.test_case "Eq. 3 formula" `Quick test_energy_zero_for_colocated;
      ] );
    ( "place.moves",
      [
        prop_moves_preserve_legality;
        Alcotest.test_case "undo restores" `Quick test_move_undo_restores;
      ] );
    ( "place.annealer",
      [
        Alcotest.test_case "validation" `Quick test_annealer_validation;
        Alcotest.test_case "improves and legal" `Quick
          test_annealer_improves_and_legal;
        Alcotest.test_case "deterministic" `Quick test_annealer_deterministic;
        Alcotest.test_case "paper parameters" `Quick
          test_annealer_default_params_match_paper;
      ] );
    ( "place.force",
      [
        Alcotest.test_case "legal on suite" `Quick
          test_force_place_legal_on_suite;
        Alcotest.test_case "deterministic" `Quick
          test_force_place_deterministic;
        Alcotest.test_case "pulls connected pairs" `Quick
          test_force_place_pulls_connected_pairs;
      ] );
    ( "place.greedy",
      [
        Alcotest.test_case "legal and deterministic" `Quick
          test_greedy_legal_and_deterministic;
        Alcotest.test_case "no worse than scanline" `Quick
          test_greedy_no_worse_than_scanline;
      ] );
  ]
