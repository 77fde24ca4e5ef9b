(* The paper's motivation, quantified: the same bioassays scheduled on the
   conventional architecture (a dedicated storage unit behind one entrance
   and one exit port, paper Fig. 1(a)) versus distributed channel storage
   (DCSA, Fig. 1(b)).

   Run with: dune exec examples/dedicated_vs_dcsa.exe *)

let tc = 2.0

let () =
  let table =
    Mfb_util.Table.create
      ~headers:
        [ "Benchmark"; "DCSA exec"; "Dedicated exec"; "Slowdown (%)";
          "Storage trips"; "Residence (s)" ]
  in
  Mfb_util.Table.set_aligns table
    (Mfb_util.Table.Left :: List.init 5 (fun _ -> Mfb_util.Table.Right));
  List.iter
    (fun (inst : Mfb_core.Suite.instance) ->
      let dcsa =
        Mfb_schedule.Engine.run ~case1:true ~tc inst.graph inst.allocation
      in
      let ded =
        Mfb_schedule.Engine.run ~storage:`Unit ~case1:false ~tc inst.graph
          inst.allocation
      in
      (* Only a storage round trip waits between leaving its producer and
         departing, and [tc] of that wait is the entrance port. *)
      let trips =
        List.length
          (List.filter
             (fun (t : Mfb_schedule.Types.transport) -> t.removal < t.depart)
             ded.transports)
      in
      Mfb_util.Table.add_row table
        [
          Mfb_bioassay.Seq_graph.name inst.graph;
          Printf.sprintf "%.1f" dcsa.makespan;
          Printf.sprintf "%.1f" ded.makespan;
          Printf.sprintf "%.1f"
            (Mfb_util.Stats.percent_increase ~ours:ded.makespan
               ~baseline:dcsa.makespan);
          string_of_int trips;
          Printf.sprintf "%.1f"
            (Mfb_schedule.Metrics.total_channel_cache_time ded
            -. (tc *. float_of_int trips));
        ])
    (Mfb_core.Suite.all ());
  print_endline
    "Conventional dedicated-storage architecture vs DCSA (scheduling level,\n\
     one entrance + one exit port):";
  Mfb_util.Table.print table
