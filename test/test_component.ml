(* Tests for components and allocations. *)

module Component = Mfb_component.Component
module Allocation = Mfb_component.Allocation
module Operation = Mfb_bioassay.Operation

let test_component_make () =
  let c = Component.make ~id:2 ~kind:Mix in
  Alcotest.(check int) "width" 3 c.width;
  Alcotest.(check int) "height" 3 c.height;
  Alcotest.(check string) "label" "Mixer2" (Component.label c);
  Alcotest.check_raises "negative id"
    (Invalid_argument "Component.make: negative id") (fun () ->
      ignore (Component.make ~id:(-1) ~kind:Mix))

let test_component_footprints () =
  let footprint kind =
    let c = Component.make ~id:0 ~kind in
    (c.width, c.height)
  in
  Alcotest.(check (pair int int)) "mixer" (3, 3) (footprint Mix);
  Alcotest.(check (pair int int)) "heater" (2, 2) (footprint Heat);
  Alcotest.(check (pair int int)) "filter" (2, 2) (footprint Filter);
  Alcotest.(check (pair int int)) "detector" (2, 2) (footprint Detect)

let test_component_qualified () =
  let mixer = Component.make ~id:0 ~kind:Mix in
  let mix_op =
    Operation.make ~id:0 ~kind:Mix ~duration:1.
      ~output:(Mfb_bioassay.Fluid.of_palette 0)
  in
  let heat_op =
    Operation.make ~id:1 ~kind:Heat ~duration:1.
      ~output:(Mfb_bioassay.Fluid.of_palette 0)
  in
  Alcotest.(check bool) "same kind" true (Component.qualified mixer mix_op);
  Alcotest.(check bool) "other kind" false (Component.qualified mixer heat_op)

let test_allocation_invalid () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Allocation.make: negative count") (fun () ->
      ignore (Allocation.make ~mixers:(-1) ~heaters:0 ~filters:0 ~detectors:0));
  Alcotest.check_raises "empty"
    (Invalid_argument "Allocation.make: empty allocation") (fun () ->
      ignore (Allocation.make ~mixers:0 ~heaters:0 ~filters:0 ~detectors:0))

let test_allocation_total_count () =
  let a = Allocation.of_vector (3, 1, 0, 2) in
  Alcotest.(check int) "total" 6 (Allocation.total a);
  Alcotest.(check int) "mixers" 3 (Allocation.count a Mix);
  Alcotest.(check int) "heaters" 1 (Allocation.count a Heat);
  Alcotest.(check int) "filters" 0 (Allocation.count a Filter);
  Alcotest.(check int) "detectors" 2 (Allocation.count a Detect)

(* Regression for the [@]-evaluation-order bug: ids must be dense,
   ascending, and grouped mixers -> heaters -> filters -> detectors. *)
let test_allocation_component_ids () =
  let a = Allocation.of_vector (2, 1, 1, 2) in
  let comps = Allocation.components a in
  List.iteri
    (fun i (c : Component.t) ->
      Alcotest.(check int) (Printf.sprintf "id %d dense" i) i c.id)
    comps;
  let kinds = List.map (fun (c : Component.t) -> c.kind) comps in
  Alcotest.(check bool) "grouped by kind" true
    (kinds = [ Mix; Mix; Heat; Filter; Detect; Detect ])

let test_allocation_covers () =
  let g = Mfb_bioassay.Benchmarks.ivd () in
  Alcotest.(check bool) "mixers+detectors covers" true
    (Allocation.covers (Allocation.of_vector (1, 0, 0, 1)) g);
  Alcotest.(check bool) "missing detectors" false
    (Allocation.covers (Allocation.of_vector (3, 0, 0, 0)) g)

let test_allocation_minimal_for () =
  let g = Mfb_bioassay.Benchmarks.ivd () in
  let a = Allocation.minimal_for g in
  Alcotest.(check string) "minimal" "(1,0,0,1)" (Allocation.to_string a);
  Alcotest.(check bool) "covers" true (Allocation.covers a g)

let test_allocation_to_string () =
  Alcotest.(check string) "table-1 format" "(3,0,0,2)"
    (Allocation.to_string (Allocation.of_vector (3, 0, 0, 2)))

let suites =
  [
    ( "component",
      [
        Alcotest.test_case "make/label" `Quick test_component_make;
        Alcotest.test_case "footprints" `Quick test_component_footprints;
        Alcotest.test_case "qualified" `Quick test_component_qualified;
      ] );
    ( "allocation",
      [
        Alcotest.test_case "invalid" `Quick test_allocation_invalid;
        Alcotest.test_case "total/count" `Quick test_allocation_total_count;
        Alcotest.test_case "component ids ordered" `Quick
          test_allocation_component_ids;
        Alcotest.test_case "covers" `Quick test_allocation_covers;
        Alcotest.test_case "minimal_for" `Quick test_allocation_minimal_for;
        Alcotest.test_case "to_string" `Quick test_allocation_to_string;
      ] );
  ]
