(* Scale sweep: how the DCSA advantage grows with bioassay size.

   Generates seeded synthetic assays from 10 to 60 operations, synthesises
   each with both flows, and prints the comparison — the trend of the
   paper's Table I (larger inputs, larger improvement) in one table.

   Run with: dune exec examples/synthetic_sweep.exe *)

module Synthetic = Mfb_bioassay.Synthetic
module Allocation = Mfb_component.Allocation
module Stats = Mfb_util.Stats

let allocation_for n_ops =
  (* Roughly one component per six operations, spread across kinds. *)
  let m = max 2 (n_ops / 6) in
  Allocation.make ~mixers:m ~heaters:(max 1 (m / 2)) ~filters:(max 1 (m / 3))
    ~detectors:(max 1 (m / 3))

let () =
  let table =
    Mfb_util.Table.create
      ~headers:
        [ "Ops"; "Components"; "Exec ours"; "Exec BA"; "Imp (%)";
          "Cache ours"; "Cache BA"; "Chan ours"; "Chan BA" ]
  in
  List.iter
    (fun n_ops ->
      let graph =
        Synthetic.generate
          ~name:(Printf.sprintf "sweep-%d" n_ops)
          { Synthetic.default_params with
            n_ops;
            kind_weights = [| 4; 2; 2; 1 |];
            layer_width = max 3 (n_ops / 6);
            seed = 500 + n_ops }
      in
      let allocation = allocation_for n_ops in
      let ours = Mfb_core.Flow.run graph allocation in
      let ba = Mfb_core.Flow.run ~variant:`Ba graph allocation in
      Mfb_util.Table.add_row table
        [
          string_of_int n_ops;
          Allocation.to_string allocation;
          Printf.sprintf "%.1f" ours.execution_time;
          Printf.sprintf "%.1f" ba.execution_time;
          Printf.sprintf "%.1f"
            (Stats.percent_improvement ~ours:ours.execution_time
               ~baseline:ba.execution_time);
          Printf.sprintf "%.1f" ours.channel_cache_time;
          Printf.sprintf "%.1f" ba.channel_cache_time;
          Printf.sprintf "%.0f" ours.channel_length_mm;
          Printf.sprintf "%.0f" ba.channel_length_mm;
        ])
    [ 10; 20; 30; 40; 50; 60 ];
  print_endline "DCSA advantage as the bioassay grows:";
  Mfb_util.Table.print table
