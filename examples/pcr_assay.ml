(* PCR walk-through: the paper's smallest real-life benchmark, end to end,
   with the proposed flow and the baseline side by side.

   Run with: dune exec examples/pcr_assay.exe *)

let describe title (r : Mfb_core.Result.t) =
  Format.printf "== %s ==@." title;
  Format.printf "%a@.@." Mfb_core.Result.pp_summary r;
  Format.printf "%a@." Mfb_schedule.Types.pp r.schedule;
  Format.printf "washes:@.";
  List.iter
    (fun (w : Mfb_schedule.Types.wash_event) ->
      Format.printf "  component %d: residue of o%d, %.1f s starting at %.1f@."
        w.component w.residue_op w.wash_duration w.wash_start)
    r.schedule.washes;
  Format.printf "transports:@.";
  List.iter
    (fun tr -> Format.printf "  %a@." Mfb_schedule.Types.pp_transport tr)
    r.schedule.transports;
  print_newline ();
  print_string (Mfb_core.Layout_render.render r);
  print_newline ()

let () =
  let inst = Mfb_core.Suite.pcr () in
  Format.printf "PCR: %a, allocation %a@.@." Mfb_bioassay.Seq_graph.pp
    inst.graph Mfb_component.Allocation.pp inst.allocation;
  describe "Proposed DCSA flow" (Mfb_core.Flow.run inst.graph inst.allocation);
  describe "Baseline (construction by correction)"
    (Mfb_core.Flow.run ~variant:`Ba inst.graph inst.allocation)
