(* Fault tolerance: what happens when a channel cell fails after
   fabrication?  The repair ladder rips up the transports crossing the
   defect and re-routes them around it; the single-defect yield is the
   fraction of used channel cells whose failure the design survives on
   the ladder's first rung, under the original timing windows.

   Run with: dune exec examples/fault_tolerance.exe *)

let () =
  let cfg = Mfb_core.Config.default in
  print_endline
    "Single-defect yield per benchmark (every used channel cell failed in\n\
     turn; repair = conflict-aware re-route, schedule untouched):\n";
  List.iter
    (fun (inst : Mfb_core.Suite.instance) ->
      let r = Mfb_core.Flow.run ~config:cfg inst.graph inst.allocation in
      let y = Mfb_repair.Plan.single_defect_yield ~config:cfg r in
      Printf.printf "  %-11s %3.0f%%  (%d of %d defects survivable)\n"
        r.benchmark (100. *. y.yield) y.survived y.cells_tested;
      match y.worst with
      | Some ((x, y), report) ->
        Printf.printf
          "              worst cell (%d,%d): %d tasks hit, %d re-routable%s\n"
          x y report.ripped_up report.rerouted
          (match report.rung with
           | Some Resynthesized -> " (after a full re-route)"
           | _ -> "")
      | None -> ())
    (Mfb_core.Suite.all ());
  print_newline ();
  print_endline
    "Dense designs trade robustness for wirelength: detour-free layouts\n\
     leave no alternative corridors to repair into."
