(* Quickstart: describe a bioassay, pick an allocation, synthesise the
   physical design, and inspect the result.

   Run with: dune exec examples/quickstart.exe *)

module B = Mfb_bioassay

let () =
  (* 1. Model the bioassay as a sequencing graph.  Operations carry their
     kind, execution time, and the fluid they produce (whose diffusion
     coefficient decides how long residues take to wash away). *)
  let serum = B.Fluid.make ~name:"serum-sample" ~diffusion:4e-7 in
  let reagent = B.Fluid.make ~name:"assay-reagent" ~diffusion:1e-6 in
  let lysate = B.Fluid.make ~name:"cell-lysate" ~diffusion:2e-8 in
  let ops =
    [
      B.Operation.make ~id:0 ~kind:Mix ~duration:5. ~output:serum;
      B.Operation.make ~id:1 ~kind:Mix ~duration:4. ~output:reagent;
      B.Operation.make ~id:2 ~kind:Mix ~duration:6. ~output:lysate;
      B.Operation.make ~id:3 ~kind:Heat ~duration:4. ~output:lysate;
      B.Operation.make ~id:4 ~kind:Mix ~duration:5. ~output:reagent;
      B.Operation.make ~id:5 ~kind:Detect ~duration:3. ~output:serum;
    ]
  in
  let edges = [ (0, 2); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let graph = B.Seq_graph.create ~name:"quickstart-assay" ~ops ~edges in

  (* 2. Choose how many components of each kind the chip may use. *)
  let allocation =
    Mfb_component.Allocation.make ~mixers:2 ~heaters:1 ~filters:0 ~detectors:1
  in

  (* 3. Run the top-down DCSA synthesis flow (paper Algs. 1 + 2). *)
  let result = Mfb_core.Flow.run graph allocation in

  (* 4. Inspect the outcome. *)
  Format.printf "%a@.@." Mfb_core.Result.pp_summary result;
  Format.printf "%a@." Mfb_schedule.Types.pp result.schedule;
  List.iter
    (fun tr -> Format.printf "  transport %a@." Mfb_schedule.Types.pp_transport tr)
    result.schedule.transports;
  print_newline ();
  print_string (Mfb_core.Layout_render.render result);

  (* 5. Compare against the construction-by-correction baseline. *)
  let baseline = Mfb_core.Flow.run ~variant:`Ba graph allocation in
  Format.printf "@.baseline: %a@." Mfb_core.Result.pp_summary baseline;
  Format.printf "speed-up over BA: %.1f%%@."
    (Mfb_util.Stats.percent_improvement ~ours:result.execution_time
       ~baseline:baseline.execution_time)
