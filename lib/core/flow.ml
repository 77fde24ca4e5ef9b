let log_src = Logs.Src.create "mfb.flow" ~doc:"DCSA synthesis flow"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Telemetry = Mfb_util.Telemetry
module Types = Mfb_schedule.Types
module Portfolio = Mfb_schedule.Portfolio
module Routed = Mfb_route.Routed

type variant =
  [ `Ours | `Ba | `No_case1 | `No_cp | `No_weights | `Force_directed
  | `Negotiated ]

(* Each variant's name and four stage choices: Alg. 1 Case-I binding
   (off = BA's earliest-ready rule), placement energy, placer, router. *)
let stages : variant -> _ = function
  | `Ours -> ("ours", true, `Eq4, `Annealing, `Alg2)
  | `Ba -> ("ba", false, `Wirelength, `Greedy, `Correction)
  | `No_case1 -> ("no-case1", false, `Eq4, `Annealing, `Alg2)
  | `No_cp -> ("no-cp", true, `Wirelength, `Annealing, `Alg2)
  | `No_weights -> ("no-weights", true, `Eq4, `Annealing, `Alg2_unweighted)
  | `Force_directed -> ("force-directed", true, `Eq4, `Force_directed, `Alg2)
  | `Negotiated -> ("negotiated", true, `Eq4, `Annealing, `Negotiated)

let variants =
  [ `Ours; `No_case1; `No_cp; `No_weights; `Force_directed; `Negotiated; `Ba ]

let name v =
  let name, _, _, _, _ = stages v in
  name

let schedule ~(config : Config.t) ?(jobs = 1) variant graph allocation =
  let _, case1, _, _, _ = stages variant in
  match config.backend with
  | Portfolio.Heuristic ->
    (Mfb_schedule.Engine.run ~case1 ~tc:config.tc graph allocation, None)
  | _ when not case1 ->
    invalid_arg
      "Flow.schedule: exact/portfolio backends only replace the Case-I \
       scheduler"
  | Portfolio.Exact ->
    let sched, decision =
      Portfolio.exact ~fuel:config.exact_fuel ~tc:config.tc graph allocation
    in
    (sched, Some decision)
  | Portfolio.Portfolio ->
    let sched, decision =
      Portfolio.race ~fuel:config.exact_fuel ~jobs ~tc:config.tc graph
        allocation
    in
    (sched, Some decision)

let retime sched routed =
  let delays, op_delays =
    List.fold_right
      (fun ((task : Routed.task), absorbed) (delays, op_delays) ->
        let extra = Float.max 0. (task.delay -. absorbed) in
        if extra <= 0. then (delays, op_delays)
        else
          match task.kind with
          | Routed.Transport ->
            ((task.transport.Types.edge, extra) :: delays, op_delays)
          | Routed.Dispense ->
            (* a dispense that had to arrive late pushes its operation *)
            (delays, (fst task.transport.Types.edge, extra) :: op_delays)
          | Routed.Waste -> (delays, op_delays))
      routed ([], [])
  in
  if delays = [] && op_delays = [] then sched
  else Mfb_schedule.Retime.with_transport_delays ~op_delays sched ~delays

let run ?(config = Config.default) ?(variant = `Ours) ?(route_io = false)
    ?(jobs = 1) graph allocation =
  Config.validate config;
  if jobs < 1 then invalid_arg "Flow.run: jobs < 1";
  let flow, _, energy, placer, router = stages variant in
  let bench = Mfb_bioassay.Seq_graph.name graph in
  let started_wall = Unix.gettimeofday () and started_cpu = Sys.time () in
  let stage_times = ref [] in
  (* [timed name f] runs stage [f], logs and records wall vs CPU time.
     Sys.time sums the CPU of every domain, so under parallel sections
     cpu_s > wall_s and the gap is the harvested speedup. *)
  let timed name f =
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    let v = Telemetry.span ~cat:"stage" name f in
    let wall_s = Unix.gettimeofday () -. w0 and cpu_s = Sys.time () -. c0 in
    stage_times :=
      { Result.stage = name; wall_s; cpu_s } :: !stage_times;
    Log.debug (fun m ->
        m "%s: %s finished in %.1f ms wall (%.1f ms cpu)" bench name
          (1000. *. wall_s) (1000. *. cpu_s));
    v
  in
  let synthesize () =
    (* Stage 1: binding and scheduling (paper Alg. 1), or the exact /
       portfolio backend when the config asks for one. *)
    let sched, decision =
      timed "schedule" (fun () ->
          schedule ~config ~jobs variant graph allocation)
    in
    (* Stage 2: placement (paper Alg. 2, lines 1-8). *)
    let nets = Mfb_place.Net.of_schedule sched in
    let weighted =
      match energy with
      | `Eq4 ->
        Mfb_place.Energy.weigh ~beta:config.beta ~gamma:config.gamma nets
      | `Wirelength -> Mfb_place.Energy.uniform nets
    in
    let chip =
      timed "place" (fun () ->
          match placer with
          | `Annealing ->
            let rng = Mfb_util.Rng.create config.seed in
            (Mfb_place.Annealer.anneal_multi ~params:config.sa ~jobs
               ~restarts:config.sa_restarts ~rng ~nets:weighted
               sched.components)
              .chip
          | `Force_directed ->
            (Mfb_place.Force_place.place ~nets:weighted sched.components).chip
          | `Greedy ->
            Mfb_place.Greedy_place.place ~nets:weighted sched.components)
    in
    (* Stage 3: conflict-aware routing (paper Alg. 2, lines 9-18). *)
    let we = config.we and tc = config.tc in
    let routing =
      timed "route" (fun () ->
          match router with
          | `Alg2 -> Mfb_route.Router.route ~route_io ~we ~tc chip sched
          | `Alg2_unweighted ->
            Mfb_route.Router.route ~weight_update:false ~route_io ~we ~tc chip
              sched
          | `Negotiated ->
            Mfb_route.Negotiated_router.route ~route_io ~we ~tc chip sched
          | `Correction ->
            Mfb_route.Baseline_router.route ~route_io ~we ~tc chip sched)
    in
    Log.info (fun m ->
        m "%s/%s: %d transports, %d unresolved, %.0f mm of channels" bench
          flow (List.length sched.transports)
          routing.unresolved routing.total_channel_length_mm);
    (* Any routing postponements flow back into the schedule. *)
    let final_sched =
      retime sched (List.map (fun t -> (t, 0.)) routing.tasks)
    in
    (final_sched, chip, routing, decision)
  in
  (* The whole run executes under a telemetry scope, so the metrics
     attached to the result cover exactly this run's collectors (its
     pool tasks included) and nothing from concurrent suite instances. *)
  let (final_sched, chip, routing, decision), metrics =
    Telemetry.with_scope (Printf.sprintf "run:%s/%s" bench flow) synthesize
  in
  Result.of_stages ~benchmark:bench ~flow
    ~cpu_time:(Sys.time () -. started_cpu)
    ~wall_time:(Unix.gettimeofday () -. started_wall)
    ~stage_times:(List.rev !stage_times)
    ~metrics ?decision ~schedule:final_sched ~chip ~routing ()
