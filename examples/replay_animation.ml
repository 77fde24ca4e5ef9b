(* Watch a synthesised chip execute: the discrete-event replay renders
   ASCII frames of the PCR design in motion — components executing [M],
   holding fluids [m], washing [~], idle [_], and fluids moving through
   channels [star].

   Run with: dune exec examples/replay_animation.exe *)

let () =
  let inst = Mfb_core.Suite.pcr () in
  let r =
    (* Route inlet dispensing and waste drains too, so the animation shows
       fluids entering from and leaving to the chip border. *)
    Mfb_core.Flow.run ~route_io:true inst.graph inst.allocation
  in
  (* Independent end-to-end verification first: any violation fails the
     walk-through. *)
  (match
     Mfb_repair.Audit.check ~config:Mfb_core.Config.default r.schedule r.chip
       r.routing
   with
   | [] -> print_endline "audit: no violations\n"
   | violations ->
     List.iter (Printf.eprintf "VIOLATION %s\n") violations;
     exit 1);
  let sim =
    Mfb_sim.Replay.create ~tc:Mfb_core.Config.default.tc ~chip:r.chip
      ~schedule:r.schedule ~routing:r.routing
  in
  print_string (Mfb_core.Gantt.render r.schedule);
  print_newline ();
  (* Animate at a handful of interesting instants: each event boundary
     plus a frame in the middle of each interval. *)
  let events = Mfb_sim.Replay.events sim in
  let sample_times =
    let rec midpoints = function
      | a :: (b :: _ as rest) -> ((a +. b) /. 2.) :: midpoints rest
      | [ _ ] | [] -> []
    in
    midpoints events
  in
  List.iter
    (fun t ->
      print_string (Mfb_sim.Replay.frame sim t);
      print_newline ())
    sample_times
