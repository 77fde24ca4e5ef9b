(* The determinism contract of the Domain-parallel synthesis engine:
   for any instance, any seed and any jobs count, parallel execution is
   bit-for-bit equivalent to sequential execution.  These are
   generator-driven properties, not single examples — every stochastic
   stage is exercised on random synthetic assays under random seeds. *)

module Rng = Mfb_util.Rng
module Pool = Mfb_util.Pool
module Seq_graph = Mfb_bioassay.Seq_graph
module Allocation = Mfb_component.Allocation
module Types = Mfb_schedule.Types
module Check = Mfb_schedule.Check
module Multi_start = Mfb_schedule.Multi_start
module Annealer = Mfb_place.Annealer

let tc = 2.0

let qtest ?(count = 60) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

(* Random synthetic instance: a seeded layered DAG plus an allocation
   that always offers every kind the generator may emit. *)
let instance_gen =
  QCheck2.Gen.(
    map2
      (fun n seed ->
        let g =
          Mfb_bioassay.Synthetic.generate ~name:"par-prop"
            { Mfb_bioassay.Synthetic.default_params with
              n_ops = n + 6;
              kind_weights = [| 3; 2; 1; 1 |];
              seed }
        in
        let alloc =
          Allocation.make ~mixers:(2 + (seed land 1)) ~heaters:2 ~filters:1
            ~detectors:1
        in
        (g, alloc))
      (int_bound 24) (int_bound 10_000))

(* Everything that identifies a schedule: makespan, per-op binding and
   times, and the transport set.  All leaves are ints/floats, so
   structural equality is exact bit-for-bit comparison. *)
let schedule_key (s : Types.t) =
  ( s.makespan,
    Array.to_list s.times,
    List.map
      (fun (tr : Types.transport) ->
        (tr.edge, tr.src, tr.dst, tr.removal, tr.depart, tr.arrive))
      s.transports,
    List.map
      (fun (w : Types.wash_event) ->
        (w.component, w.residue_op, w.wash_start, w.wash_duration))
      s.washes )

let chip_key (c : Mfb_place.Chip.t) =
  (c.width, c.height, Array.to_list c.places)

(* --- Multi-start scheduling: jobs=1 == jobs=4 --- *)

let prop_multistart_jobs_equivalent =
  qtest "Multi_start jobs=1 == jobs=4 (makespan, bindings, transports)"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let run jobs =
        Multi_start.schedule ~restarts:6 ~jobs ~rng:(Rng.create seed) ~tc g
          alloc
      in
      let seq = run 1 and par = run 4 in
      seq.improved_over_first = par.improved_over_first
      && schedule_key seq.schedule = schedule_key par.schedule)

(* --- Annealing placement: jobs=1 == jobs=4 --- *)

let fast_sa = { Annealer.default_params with t0 = 50.; i_max = 15 }

let prop_annealer_jobs_equivalent =
  qtest ~count:25 "Annealer restarts jobs=1 == jobs=4 (energy, placement)"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
      let nets =
        Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4
          (Mfb_place.Net.of_schedule sched)
      in
      let run jobs =
        Annealer.anneal_multi ~params:fast_sa ~jobs ~restarts:3
          ~rng:(Rng.create seed) ~nets sched.components
      in
      let seq = run 1 and par = run 4 in
      seq.energy = par.energy
      && seq.initial_energy = par.initial_energy
      && chip_key seq.chip = chip_key par.chip)

(* --- Legality under any jobs value --- *)

let prop_parallel_schedule_legal =
  qtest ~count:100 "Multi_start under any jobs passes Check.validate"
    QCheck2.Gen.(triple instance_gen (int_range 1 4) (int_bound 1000))
    (fun ((g, alloc), jobs, seed) ->
      let multi =
        Multi_start.schedule ~restarts:4 ~jobs ~rng:(Rng.create seed) ~tc g
          alloc
      in
      Check.validate ~tc multi.schedule = [])

(* --- Whole flow: jobs=1 == jobs=3 through schedule+place+route --- *)

let prop_flow_jobs_equivalent =
  qtest ~count:12 "Flow.run jobs=1 == jobs=3 (schedule, chip, routing)"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let config =
        { Mfb_core.Config.default with sa_restarts = 3; seed }
      in
      let run jobs = Mfb_core.Flow.run ~config ~jobs g alloc in
      let seq = run 1 and par = run 3 in
      schedule_key seq.schedule = schedule_key par.schedule
      && chip_key seq.chip = chip_key par.chip
      && seq.channel_length_mm = par.channel_length_mm
      && seq.channel_wash_time = par.channel_wash_time
      && seq.execution_time = par.execution_time)

(* --- Telemetry on: Result aggregates stay jobs-invariant --- *)

module Telemetry = Mfb_util.Telemetry

(* Runs [f] under a fresh installed sink, returns its value; the sink
   never leaks into the other properties. *)
let with_sink f =
  Telemetry.install (Telemetry.make_sink ());
  Fun.protect ~finally:Telemetry.uninstall f

let prop_flow_metrics_jobs_equivalent =
  qtest ~count:12
    "Flow.run with telemetry: metrics and to_json jobs=1 == jobs=3"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let config = { Mfb_core.Config.default with sa_restarts = 3; seed } in
      (* Strip the wall-clock fields — everything else must be
         bit-for-bit, the telemetry aggregates included. *)
      let key jobs =
        with_sink (fun () ->
            let r = Mfb_core.Flow.run ~config ~jobs g alloc in
            let json =
              match Mfb_core.Result.to_json r with
              | Mfb_util.Json.Obj fields ->
                Mfb_util.Json.Obj
                  (List.filter
                     (fun (k, _) ->
                       k <> "cpu_time_s" && k <> "wall_time_s"
                       && k <> "stage_times")
                     fields)
              | other -> other
            in
            (r.metrics, Mfb_util.Json.to_string json))
      in
      let (m1, j1) = key 1 and (m3, j3) = key 3 in
      m1 <> [] && m1 = m3 && j1 = j3)

(* --- Portfolio backend: Result.to_json is jobs-invariant --- *)

(* Small assays only — the exact arm is exponential. *)
let small_instance_gen =
  QCheck2.Gen.(
    map2
      (fun n seed ->
        let g =
          Mfb_bioassay.Synthetic.generate ~name:"portfolio-prop"
            { Mfb_bioassay.Synthetic.default_params with
              n_ops = n + 4;
              kind_weights = [| 3; 2; 1; 1 |];
              seed }
        in
        let alloc =
          Allocation.make ~mixers:2 ~heaters:2 ~filters:1 ~detectors:1
        in
        (g, alloc))
      (int_bound 8) (int_bound 10_000))

let prop_portfolio_flow_jobs_equivalent =
  qtest ~count:10
    "Flow.run backend=portfolio: Result.to_json jobs=1 == jobs=3"
    QCheck2.Gen.(pair small_instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let config =
        { Mfb_core.Config.default with
          seed;
          backend = Mfb_schedule.Portfolio.Portfolio;
          exact_fuel = 20_000 }
      in
      let key jobs =
        let r = Mfb_core.Flow.run ~config ~jobs g alloc in
        let json =
          match Mfb_core.Result.to_json r with
          | Mfb_util.Json.Obj fields ->
            Mfb_util.Json.Obj
              (List.filter
                 (fun (k, _) -> k <> "cpu_time_s" && k <> "wall_time_s")
                 fields)
          | other -> other
        in
        (r.decision, Mfb_util.Json.to_string json)
      in
      let d1, j1 = key 1 and d3, j3 = key 3 in
      d1 <> None && d1 = d3 && j1 = j3)

let prop_annealer_temperature_steps_invariant =
  qtest ~count:25 "Annealer temperature_steps: pure function of params"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
      let nets =
        Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4
          (Mfb_place.Net.of_schedule sched)
      in
      let run jobs seed =
        Annealer.anneal_multi ~params:fast_sa ~jobs ~restarts:3
          ~rng:(Rng.create seed) ~nets sched.components
      in
      let a = run 1 seed and b = run 4 seed and c = run 1 (seed + 1) in
      a.temperature_steps > 0
      && a.temperature_steps = b.temperature_steps
      && a.temperature_steps = c.temperature_steps)

let prop_astar_stats_deterministic =
  qtest ~count:20 "A* search effort (pops/pushes/expansions) deterministic"
    QCheck2.Gen.(pair instance_gen (int_bound 1000))
    (fun ((g, alloc), seed) ->
      let sched = Mfb_schedule.Engine.run ~case1:true ~tc g alloc in
      let nets =
        Mfb_place.Energy.weigh ~beta:0.6 ~gamma:0.4
          (Mfb_place.Net.of_schedule sched)
      in
      let placed =
        Annealer.place ~params:fast_sa ~rng:(Rng.create seed) ~nets
          sched.components
      in
      let grid = Mfb_route.Rgrid.create ~we:10. placed.chip in
      let route () =
        let stats = Mfb_route.Astar.stats () in
        (match
           Mfb_route.Astar.search_multi ~stats grid ~srcs:[ (0, 0) ]
             ~dsts:
               [ (Mfb_route.Rgrid.width grid - 1,
                  Mfb_route.Rgrid.height grid - 1) ]
             ~usable:(fun i -> not (Mfb_route.Rgrid.blocked_at grid i))
             ~use_weights:false
         with
        | Some _ | None -> ());
        (stats.pops, stats.pushes, stats.expansions)
      in
      let ((pops, pushes, expansions) as a) = route () in
      a = route () && pops > 0 && pushes >= pops && expansions <= pops)

(* --- Suite fan-out: pair order and results independent of jobs --- *)

let test_suite_pairs_jobs_equivalent () =
  let config = Mfb_core.Config.default in
  let key pairs =
    List.map
      (fun ((ours : Mfb_core.Result.t), (ba : Mfb_core.Result.t)) ->
        ( ours.benchmark, ours.flow, ba.flow,
          schedule_key ours.schedule, schedule_key ba.schedule ))
      pairs
  in
  let instances = [ Mfb_core.Suite.pcr (); Mfb_core.Suite.ivd () ] in
  let seq = Mfb_core.Suite.run_pairs ~jobs:1 ~config ~instances () in
  let par = Mfb_core.Suite.run_pairs ~jobs:4 ~config ~instances () in
  Alcotest.(check bool) "identical pairs in suite order" true
    (key seq = key par);
  Alcotest.(check (list string)) "ours/ba labelling"
    [ "ours"; "ba"; "ours"; "ba" ]
    (List.concat_map
       (fun ((o : Mfb_core.Result.t), (b : Mfb_core.Result.t)) ->
         [ o.flow; b.flow ])
       seq)

(* --- Rng.split_n: dispatch-side determinism --- *)

let prop_split_n_deterministic =
  qtest "Rng.split_n streams depend only on (seed, index)"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 0 16))
    (fun (seed, n) ->
      let draw rng = List.init 4 (fun _ -> Rng.int rng 1_000_000) in
      let a = Array.map draw (Rng.split_n (Rng.create seed) n) in
      let b = Array.map draw (Rng.split_n (Rng.create seed) n) in
      a = b)

let suites =
  [
    ( "parallel.determinism",
      [
        prop_multistart_jobs_equivalent;
        prop_annealer_jobs_equivalent;
        prop_parallel_schedule_legal;
        prop_flow_jobs_equivalent;
        prop_flow_metrics_jobs_equivalent;
        prop_portfolio_flow_jobs_equivalent;
        prop_annealer_temperature_steps_invariant;
        prop_astar_stats_deterministic;
        Alcotest.test_case "suite pairs across jobs" `Quick
          test_suite_pairs_jobs_equivalent;
        prop_split_n_deterministic;
      ] );
  ]
