(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table I, Fig. 8, Fig. 9), the ablations called out in
   DESIGN.md, a t_c sensitivity sweep, and Bechamel micro-benchmarks of
   the synthesis stages.

   Run with: dune exec bench/main.exe *)

module Flow = Mfb_core.Flow
module Baseline = Mfb_core.Baseline
module Config = Mfb_core.Config
module Suite = Mfb_core.Suite
module Result_ = Mfb_core.Result
module Report = Mfb_core.Report
module Table = Mfb_util.Table
module Stats = Mfb_util.Stats

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --jobs N on the command line; defaults to the host's recommended
   domain count.  Every parallel section is deterministic in the result,
   so the flag only moves wall-clock time. *)
let jobs =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--jobs" then int_of_string_opt Sys.argv.(i + 1)
    else scan (i + 1)
  in
  match scan 0 with
  | Some j when j >= 1 -> j
  | Some _ | None -> Mfb_util.Pool.default_jobs ()

(* --trace FILE records telemetry over the whole harness run and writes
   a Chrome trace_event JSON (open in Perfetto; validate with
   'dcsa-synth trace FILE'). *)
let trace_file =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--trace" then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 0

let trace_sink =
  match trace_file with
  | None -> None
  | Some _ ->
    let sink = Mfb_util.Telemetry.make_sink () in
    Mfb_util.Telemetry.install sink;
    Some sink

let write_trace () =
  match trace_file, trace_sink with
  | Some path, Some sink ->
    Out_channel.with_open_text path (fun oc ->
        Mfb_util.Json.to_channel ~indent:1 oc
          (Mfb_util.Telemetry.to_chrome_json ~process_name:"dcsa-bench" sink));
    Printf.eprintf "wrote %s\n" path
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Table I + Figures 8 and 9                                          *)
(* ------------------------------------------------------------------ *)

let run_suite ?(jobs = jobs) config = Suite.run_pairs ~jobs ~config ()

let table1 pairs =
  section
    "Table I: execution time, resource utilization, channel length, CPU time";
  print_string (Report.table1 pairs)

let stage_timing pairs =
  section "Per-stage wall-clock vs CPU time (our flow)";
  print_string (Report.timing_table (List.map fst pairs))

(* ------------------------------------------------------------------ *)
(* Parallel scaling: wall-clock of the Table-I suite vs --jobs        *)
(* ------------------------------------------------------------------ *)

let parallel_scaling config =
  section
    (Printf.sprintf
       "Parallel scaling: Table-I suite wall-clock vs worker domains \
        (host recommends %d)"
       (Mfb_util.Pool.default_jobs ()));
  let measure jobs =
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    let pairs = run_suite ~jobs config in
    (pairs, Unix.gettimeofday () -. w0, Sys.time () -. c0)
  in
  let _, wall1, cpu1 = measure 1 in
  let table =
    Table.create
      ~headers:[ "Jobs"; "Wall (s)"; "CPU (s)"; "Speedup"; "Efficiency" ]
  in
  Table.set_aligns table
    [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ];
  let row jobs wall cpu =
    Table.add_row table
      [
        string_of_int jobs;
        Printf.sprintf "%.3f" wall;
        Printf.sprintf "%.3f" cpu;
        Printf.sprintf "%.2fx" (wall1 /. Float.max wall 1e-9);
        Printf.sprintf "%.0f%%"
          (100. *. wall1 /. (Float.max wall 1e-9 *. float_of_int jobs));
      ]
  in
  row 1 wall1 cpu1;
  List.iter
    (fun jobs ->
      let _, wall, cpu = measure jobs in
      row jobs wall cpu)
    (List.sort_uniq compare [ 2; 4; jobs ] |> List.filter (fun j -> j > 1));
  Table.print table;
  print_endline
    "(identical results at every row; only the wall-clock moves)"

let figures pairs =
  section "Figure 8 and Figure 9";
  print_string (Report.fig8 pairs);
  print_newline ();
  print_string (Report.fig9 pairs)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md A1-A3)                                        *)
(* ------------------------------------------------------------------ *)

let ablations config =
  section "Ablations: which ingredient buys what (averages over the suite)";
  let label = function
    | `Ours -> "full flow"
    | `No_case1 -> "A1 no case-I binding"
    | `No_cp -> "A2 uniform placement energy"
    | `No_weights -> "A3 no router weight update"
    | `Force_directed -> "A4 force-directed placer"
    | `Negotiated -> "A5 negotiated (PathFinder) router"
    | `Ba -> "baseline BA"
  in
  let table =
    Table.create
      ~headers:
        [ "Variant"; "Exec (s)"; "Util (%)"; "Channel (mm)"; "Cache (s)";
          "Chan wash (s)" ]
  in
  Table.set_aligns table
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
      Table.Right ];
  List.iter
    (fun variant ->
      let results =
        List.map
          (fun (i : Suite.instance) ->
            Flow.run ~config ~variant i.graph i.allocation)
          (Suite.all ())
      in
      let mean f = Stats.mean (List.map f results) in
      Table.add_row table
        [
          label variant;
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.execution_time));
          Printf.sprintf "%.1f" (100. *. mean (fun r -> r.Result_.utilization));
          Printf.sprintf "%.0f" (mean (fun r -> r.Result_.channel_length_mm));
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.channel_cache_time));
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.channel_wash_time));
        ])
    Flow.variants;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Sensitivity: transport-time constant t_c                           *)
(* ------------------------------------------------------------------ *)

let tc_sensitivity config =
  section
    "Sensitivity: transport-time constant t_c (mean over synthetic suite)";
  let synthetics =
    [ Suite.synthetic1 (); Suite.synthetic2 (); Suite.synthetic3 ();
      Suite.synthetic4 () ]
  in
  let table =
    Table.create
      ~headers:
        [ "t_c (s)"; "Exec ours"; "Exec BA"; "Imp (%)"; "Cache ours";
          "Cache BA" ]
  in
  List.iter
    (fun tc ->
      let cfg = { config with Config.tc } in
      let ours =
        List.map
          (fun (i : Suite.instance) -> Flow.run ~config:cfg i.graph i.allocation)
          synthetics
      in
      let ba =
        List.map
          (fun (i : Suite.instance) ->
            Baseline.run ~config:cfg i.graph i.allocation)
          synthetics
      in
      let mean field results = Stats.mean (List.map field results) in
      let exec_ours = mean (fun r -> r.Result_.execution_time) ours in
      let exec_ba = mean (fun r -> r.Result_.execution_time) ba in
      Table.add_row table
        [
          Printf.sprintf "%.1f" tc;
          Printf.sprintf "%.1f" exec_ours;
          Printf.sprintf "%.1f" exec_ba;
          Printf.sprintf "%.1f"
            (Stats.percent_improvement ~ours:exec_ours ~baseline:exec_ba);
          Printf.sprintf "%.1f"
            (mean (fun r -> r.Result_.channel_cache_time) ours);
          Printf.sprintf "%.1f"
            (mean (fun r -> r.Result_.channel_cache_time) ba);
        ])
    [ 1.0; 2.0; 4.0; 8.0 ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* Parameter study: Eq. 4 weights beta/gamma                          *)
(* ------------------------------------------------------------------ *)

let beta_gamma_study config =
  section
    "Parameter study: Eq. 4 weights (beta concurrency vs gamma wash; the \
     paper uses 0.6/0.4) — suite means";
  let table =
    Table.create
      ~headers:
        [ "beta"; "gamma"; "Exec (s)"; "Channel (mm)"; "Cache (s)";
          "Chan wash (s)" ]
  in
  List.iter
    (fun (beta, gamma) ->
      let cfg = { config with Config.beta; gamma } in
      let results =
        List.map
          (fun (i : Suite.instance) -> Flow.run ~config:cfg i.graph i.allocation)
          (Suite.all ())
      in
      let mean f = Stats.mean (List.map f results) in
      Table.add_row table
        [
          Printf.sprintf "%.2f" beta;
          Printf.sprintf "%.2f" gamma;
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.execution_time));
          Printf.sprintf "%.0f" (mean (fun r -> r.Result_.channel_length_mm));
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.channel_cache_time));
          Printf.sprintf "%.1f" (mean (fun r -> r.Result_.channel_wash_time));
        ])
    [ (1.0, 0.0); (0.75, 0.25); (0.6, 0.4); (0.4, 0.6); (0.0, 1.0) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* Motivation: DCSA vs the dedicated storage unit (paper Fig. 1)      *)
(* ------------------------------------------------------------------ *)

let dedicated_comparison config =
  section
    "Motivation: DCSA vs dedicated storage unit (scheduling level, cap. 4)";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "DCSA exec"; "Dedicated exec"; "Slowdown (%)";
          "Trips"; "Residence (s)"; "Peak cells"; "Overflows" ]
  in
  Table.set_aligns table (Table.Left :: List.init 7 (fun _ -> Table.Right));
  List.iter
    (fun (inst : Suite.instance) ->
      let dcsa =
        Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.Config.tc inst.graph
          inst.allocation
      in
      let dedicated =
        Mfb_schedule.Dedicated_scheduler.schedule ~tc:config.tc ~capacity:4
          inst.graph inst.allocation
      in
      Table.add_row table
        [
          Mfb_bioassay.Seq_graph.name inst.graph;
          Printf.sprintf "%.1f" dcsa.makespan;
          Printf.sprintf "%.1f" dedicated.schedule.makespan;
          Printf.sprintf "%.1f"
            (Stats.percent_increase ~ours:dedicated.schedule.makespan
               ~baseline:dcsa.makespan);
          string_of_int dedicated.storage_trips;
          Printf.sprintf "%.1f" dedicated.storage_residence;
          string_of_int dedicated.peak_occupancy;
          string_of_int dedicated.capacity_overflows;
        ])
    (Suite.all ());
  Table.print table

(* ------------------------------------------------------------------ *)
(* Control layer: valves, actuation, Hamming-mux optimization         *)
(* ------------------------------------------------------------------ *)

let control_layer pairs =
  section
    "Control layer: valves, escape routing, and Hamming-distance \
     multiplexing (future work of the paper, per Wang et al.)";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Valves"; "Mux pins"; "Valve switches";
          "Toggles naive"; "Toggles greedy"; "Imp (%)"; "Escaped";
          "Line cells" ]
  in
  Table.set_aligns table (Table.Left :: List.init 8 (fun _ -> Table.Right));
  List.iter
    (fun ((ours : Result_.t), _) ->
      let valves = Mfb_control.Valve_map.of_routing ours.routing in
      let steps =
        Mfb_control.Actuation.steps ~tc:Config.default.tc valves ours.routing
      in
      let events = Mfb_control.Actuation.toggle_sequence steps in
      let n = max 1 (Mfb_control.Valve_map.count valves) in
      let naive =
        Mfb_control.Mux.switching_cost (Mfb_control.Mux.naive ~n) ~events
      in
      let optimized =
        Mfb_control.Mux.switching_cost
          (Mfb_control.Mux.greedy ~events ~n)
          ~events
      in
      let esc =
        Mfb_control.Escape.route ~width:ours.chip.width
          ~height:ours.chip.height valves
      in
      Table.add_row table
        [
          ours.benchmark;
          string_of_int (Mfb_control.Valve_map.count valves);
          string_of_int (Mfb_control.Mux.pins_needed n);
          string_of_int (Mfb_control.Actuation.valve_switching steps);
          string_of_int naive;
          string_of_int optimized;
          Printf.sprintf "%.1f"
            (Mfb_control.Mux.improvement_percent ~naive ~optimized);
          Printf.sprintf "%d/%d" (List.length esc.lines)
            (Mfb_control.Valve_map.count valves);
          string_of_int esc.total_length;
        ])
    pairs;
  Table.print table;
  print_endline
    "(Escaped x/y: control lines routed to edge pins without crossings at \
     2 control cells per flow cell; the rest need multiplexing — the point \
     of Wang et al.'s mux optimization.)"

(* ------------------------------------------------------------------ *)
(* Heuristic vs exact on small assays                                 *)
(* ------------------------------------------------------------------ *)

let exact_out = "BENCH_exact.json"

(* Runs the branch-and-bound oracle against the heuristic on every small
   instance, prints the gap table and emits BENCH_exact.json.  Returns
   true when (a) every in-fuel (optimal) instance has exact <= heuristic
   and (b) at least 3 instances populate the gap section — the CI
   exact-oracle gate. *)
let exact_comparison config =
  section "Scheduling quality: list-scheduling heuristic vs exact B&B";
  let small =
    let pcr = Suite.pcr () in
    let ivd = Suite.ivd () in
    [
      ("PCR", pcr.graph, pcr.allocation);
      ( "Fig2-example", Mfb_bioassay.Benchmarks.fig2_example (),
        Mfb_component.Allocation.of_vector (3, 1, 0, 1) );
    ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "tiny-%d" seed,
            Mfb_bioassay.Synthetic.generate
              ~name:(Printf.sprintf "tiny-%d" seed)
              { Mfb_bioassay.Synthetic.default_params with n_ops = 8; seed },
            Mfb_component.Allocation.of_vector (2, 2, 1, 1) ))
        [ 3; 17; 42 ]
    @ [ ("IVD", ivd.graph, ivd.allocation) ]
  in
  let rows =
    List.map
      (fun (name, g, alloc) ->
        let exact = Mfb_schedule.Exact.schedule ~tc:config.Config.tc g alloc in
        (name, Mfb_bioassay.Seq_graph.n_ops g, exact))
      small
  in
  let table =
    Table.create
      ~headers:
        [ "Instance"; "Ops"; "Heuristic (s)"; "Exact (s)"; "Gap (%)";
          "Optimal?"; "Nodes" ]
  in
  Table.set_aligns table (Table.Left :: List.init 6 (fun _ -> Table.Right));
  let gap (e : Mfb_schedule.Exact.t) =
    Stats.percent_increase ~ours:e.heuristic_makespan
      ~baseline:e.schedule.makespan
  in
  List.iter
    (fun (name, ops, (e : Mfb_schedule.Exact.t)) ->
      Table.add_row table
        [
          name;
          string_of_int ops;
          Printf.sprintf "%.1f" e.heuristic_makespan;
          Printf.sprintf "%.1f" e.schedule.makespan;
          Printf.sprintf "%.1f" (gap e);
          (if e.optimal then "yes" else "no");
          string_of_int e.explored;
        ])
    rows;
  Table.print table;
  let optimal_rows =
    List.filter (fun (_, _, (e : Mfb_schedule.Exact.t)) -> e.optimal) rows
  in
  let never_worse =
    List.for_all
      (fun (_, _, (e : Mfb_schedule.Exact.t)) ->
        e.schedule.makespan <= e.heuristic_makespan +. 1e-9)
      rows
  in
  let populated = List.length optimal_rows in
  Printf.printf
    "exact <= heuristic on every in-fuel instance: %s; gap section \
     populated for %d instances (target >= 3: %s)\n"
    (if never_worse then "yes" else "NO")
    populated
    (if populated >= 3 then "met" else "MISSED");
  let row_json (name, ops, (e : Mfb_schedule.Exact.t)) =
    Mfb_util.Json.Obj
      [
        ("name", Mfb_util.Json.String name);
        ("ops", Mfb_util.Json.Int ops);
        ("heuristic_s", Mfb_util.Json.Float e.heuristic_makespan);
        ("exact_s", Mfb_util.Json.Float e.schedule.makespan);
        ("gap_percent", Mfb_util.Json.Float (gap e));
        ("optimal", Mfb_util.Json.Bool e.optimal);
        ("truncated", Mfb_util.Json.Bool e.truncated);
        ("explored", Mfb_util.Json.Int e.explored);
        ("fuel", Mfb_util.Json.Int e.fuel);
      ]
  in
  let doc =
    Mfb_util.Json.Obj
      [
        ("fuel", Mfb_util.Json.Int Mfb_schedule.Exact.default_fuel);
        ("benchmarks", Mfb_util.Json.List (List.map row_json rows));
        ("gap_populated", Mfb_util.Json.Int populated);
        ("never_worse", Mfb_util.Json.Bool never_worse);
      ]
  in
  Out_channel.with_open_text exact_out (fun oc ->
      Mfb_util.Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" exact_out;
  never_worse && populated >= 3

(* ------------------------------------------------------------------ *)
(* Multi-start randomized list scheduling                             *)
(* ------------------------------------------------------------------ *)

let multistart_study config =
  section
    "Multi-start list scheduling: best of 32 perturbed-priority runs";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Single (s)"; "Multi-start (s)"; "Gain (s)";
          "Exact LB (s)" ]
  in
  Table.set_aligns table (Table.Left :: List.init 4 (fun _ -> Table.Right));
  List.iter
    (fun (inst : Suite.instance) ->
      let single =
        Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.Config.tc inst.graph
          inst.allocation
      in
      let multi =
        Mfb_schedule.Multi_start.schedule ~restarts:32 ~jobs
          ~rng:(Mfb_util.Rng.create 7) ~tc:config.tc inst.graph
          inst.allocation
      in
      let exact_column =
        if Mfb_bioassay.Seq_graph.n_ops inst.graph <= 8 then
          Printf.sprintf "%.1f"
            (Mfb_schedule.Exact.schedule ~tc:config.tc inst.graph
               inst.allocation)
              .schedule
              .makespan
        else "-"
      in
      Table.add_row table
        [
          Mfb_bioassay.Seq_graph.name inst.graph;
          Printf.sprintf "%.1f" single.makespan;
          Printf.sprintf "%.1f" multi.schedule.makespan;
          Printf.sprintf "%.1f" multi.improved_over_first;
          exact_column;
        ])
    (Suite.all ());
  Table.print table

(* ------------------------------------------------------------------ *)
(* Wash-flush planning (beyond the paper; after Hu et al.)            *)
(* ------------------------------------------------------------------ *)

let wash_planning config pairs =
  section "Wash-flush planning: buffer usage behind Fig. 9";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Flushes ours"; "Flushes BA"; "Buffer ours";
          "Buffer BA"; "Interf ours"; "Interf BA" ]
  in
  Table.set_aligns table (Table.Left :: List.init 6 (fun _ -> Table.Right));
  List.iter
    (fun ((ours : Result_.t), (ba : Result_.t)) ->
      let p = Mfb_route.Wash_plan.plan ~tc:config.Config.tc ours.routing in
      let pb = Mfb_route.Wash_plan.plan ~tc:config.tc ba.routing in
      Table.add_row table
        [
          ours.benchmark;
          string_of_int (List.length p.flushes);
          string_of_int (List.length pb.flushes);
          Printf.sprintf "%.0f" p.buffer_volume_cells;
          Printf.sprintf "%.0f" pb.buffer_volume_cells;
          string_of_int p.total_interferences;
          string_of_int pb.total_interferences;
        ])
    pairs;
  Table.print table;
  print_endline
    "(buffer = cells x seconds of wash flow; interf = flush cells occupied\n\
     by other fluids during the wash window)"

(* ------------------------------------------------------------------ *)
(* I/O dispensing study (beyond the paper)                            *)
(* ------------------------------------------------------------------ *)

let io_study config =
  section
    "I/O dispensing study: channel totals when inlet/waste runs are routed";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Chan ours"; "Chan ours+IO"; "Chan BA"; "Chan BA+IO";
          "IO conflicts ours/BA" ]
  in
  Table.set_aligns table (Table.Left :: List.init 5 (fun _ -> Table.Right));
  List.iter
    (fun (inst : Suite.instance) ->
      let ours = Flow.run ~config inst.graph inst.allocation in
      let ours_io =
        Flow.run ~config ~route_io:true inst.graph inst.allocation
      in
      let ba = Baseline.run ~config inst.graph inst.allocation in
      let ba_io =
        Baseline.run ~config ~route_io:true inst.graph inst.allocation
      in
      Table.add_row table
        [
          Mfb_bioassay.Seq_graph.name inst.graph;
          Printf.sprintf "%.0f" ours.channel_length_mm;
          Printf.sprintf "%.0f" ours_io.channel_length_mm;
          Printf.sprintf "%.0f" ba.channel_length_mm;
          Printf.sprintf "%.0f" ba_io.channel_length_mm;
          Printf.sprintf "%d/%d" ours_io.routing.unresolved
            ba_io.routing.unresolved;
        ])
    (Suite.all ());
  Table.print table;
  print_endline
    "(Table I above keeps the paper's scope — inter-component transports \
     only.)"

(* ------------------------------------------------------------------ *)
(* Architectural exploration (upstream of the paper; after ref [6])   *)
(* ------------------------------------------------------------------ *)

let allocation_exploration config =
  section
    "Architectural exploration: knee of the (components, time) frontier vs \
     Table-I allocations";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Table-I alloc"; "Exec (s)"; "Knee alloc";
          "Knee exec (s)"; "Components saved" ]
  in
  Table.set_aligns table (Table.Left :: List.init 5 (fun _ -> Table.Right));
  List.iter
    (fun (inst : Suite.instance) ->
      let table1_sched =
        Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.Config.tc inst.graph
          inst.allocation
      in
      let frontier = Mfb_core.Allocator.explore ~tc:config.tc inst.graph in
      match Mfb_core.Allocator.knee frontier with
      | None -> ()
      | Some knee ->
        Table.add_row table
          [
            Mfb_bioassay.Seq_graph.name inst.graph;
            Mfb_component.Allocation.to_string inst.allocation;
            Printf.sprintf "%.1f" table1_sched.makespan;
            Mfb_component.Allocation.to_string knee.allocation;
            Printf.sprintf "%.1f" knee.completion_time;
            string_of_int
              (Mfb_component.Allocation.total inst.allocation
              - knee.components);
          ])
    (Suite.all ());
  Table.print table

(* ------------------------------------------------------------------ *)
(* Physical validation: hydraulics of the tc abstraction + yield      *)
(* ------------------------------------------------------------------ *)

let physical_validation config pairs =
  section
    "Physical validation: how honest is constant t_c, and how fragile is \
     the layout?";
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Mean |err| (%)"; "Worst under (%)";
          "Pressure margin"; "Defect yield (%)" ]
  in
  Table.set_aligns table (Table.Left :: List.init 4 (fun _ -> Table.Right));
  List.iter
    (fun ((ours : Result_.t), _) ->
      let hydro =
        Mfb_route.Hydraulics.analyse ~tc:config.Config.tc ours.routing
      in
      let y =
        Mfb_route.Repair.single_defect_yield ~we:config.we ~tc:config.tc
          ours.chip ours.schedule ours.routing
      in
      Table.add_row table
        [
          ours.benchmark;
          Printf.sprintf "%.0f" (100. *. hydro.mean_absolute_error);
          Printf.sprintf "%.0f" (100. *. hydro.worst_underestimate);
          Printf.sprintf "%.2fx" hydro.pressure_margin;
          Printf.sprintf "%.0f" (100. *. y.yield);
        ])
    pairs;
  Table.print table;
  print_endline
    "(err: Hagen-Poiseuille transport time vs the scheduler's t_c; yield: \
     fraction of single channel-cell defects survivable by re-routing)"

(* ------------------------------------------------------------------ *)
(* Hot paths: incremental SA energy and reusable A* heuristic fields  *)
(* ------------------------------------------------------------------ *)

(* Counter evidence from the optimized inner loops, against the per-move
   cost of the dense evaluation they replace: a from-scratch objective
   visits every net plus every component pair, twice per proposal
   (moved and reverted placements), where the incremental path touches
   only terms incident to the moved components.  The periodic re-syncs
   are charged to the incremental side so the reduction factor covers
   everything the annealer evaluates.  Emits BENCH_hotpath.json. *)

type hotpath_row = {
  hp_name : string;
  hp_ops : int;
  hp_dense : int;          (* dense terms per proposal *)
  hp_inc : float;          (* measured incremental terms per proposal *)
  hp_reduction : float;
  hp_searches : int;
  hp_builds : int;
  hp_wall : float;
}

let hotpath_out = "BENCH_hotpath.json"

let hotpath_section config =
  section
    "Hot paths: evaluated terms per SA move and A* heuristic-field reuse";
  let measure (inst : Suite.instance) =
    let sink = Mfb_util.Telemetry.make_sink () in
    Mfb_util.Telemetry.install sink;
    let w0 = Unix.gettimeofday () in
    let result = Flow.run ~config inst.graph inst.allocation in
    let wall = Unix.gettimeofday () -. w0 in
    (match trace_sink with
     | Some s -> Mfb_util.Telemetry.install s
     | None -> Mfb_util.Telemetry.uninstall ());
    let c cat name = Mfb_util.Telemetry.counter_total sink ~cat name in
    let n = Array.length result.Result_.schedule.components in
    let n_nets =
      List.length (Mfb_place.Net.of_schedule result.Result_.schedule)
    in
    let pairs = n * (n - 1) / 2 in
    let dense = 2 * (n_nets + pairs) in
    let attempted = max 1 (c "place" "sa.attempted") in
    let inc_terms =
      c "place" "delta_evals" + (c "place" "resyncs" * (n_nets + pairs))
    in
    let hp_inc = float_of_int inc_terms /. float_of_int attempted in
    {
      hp_name = Mfb_bioassay.Seq_graph.name inst.graph;
      hp_ops = Mfb_bioassay.Seq_graph.n_ops inst.graph;
      hp_dense = dense;
      hp_inc;
      hp_reduction = float_of_int dense /. Float.max hp_inc 1e-9;
      hp_searches = c "route" "astar.searches";
      hp_builds = c "route" "heuristic_field_builds";
      hp_wall = wall;
    }
  in
  let rows = List.map measure (Suite.all ()) in
  let table =
    Table.create
      ~headers:
        [ "Benchmark"; "Ops"; "Dense terms/move"; "Incr terms/move";
          "Reduction"; "A* searches"; "Field builds"; "Wall (s)" ]
  in
  Table.set_aligns table (Table.Left :: List.init 7 (fun _ -> Table.Right));
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.hp_name;
          string_of_int r.hp_ops;
          string_of_int r.hp_dense;
          Printf.sprintf "%.1f" r.hp_inc;
          Printf.sprintf "%.1fx" r.hp_reduction;
          string_of_int r.hp_searches;
          string_of_int r.hp_builds;
          Printf.sprintf "%.3f" r.hp_wall;
        ])
    rows;
  Table.print table;
  let largest =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some best when best.hp_ops >= r.hp_ops -> acc
        | _ -> Some r)
      None rows
  in
  (match largest with
   | Some r ->
     Printf.printf
       "largest assay %s: %.1fx fewer evaluated terms per SA move \
        (target >= 3x: %s); heuristic fields built %d for %d searches\n"
       r.hp_name r.hp_reduction
       (if r.hp_reduction >= 3. then "met" else "MISSED")
       r.hp_builds r.hp_searches
   | None -> ());
  let row_json r =
    Mfb_util.Json.Obj
      [
        ("name", Mfb_util.Json.String r.hp_name);
        ("ops", Mfb_util.Json.Int r.hp_ops);
        ("dense_terms_per_move", Mfb_util.Json.Int r.hp_dense);
        ("incremental_terms_per_move", Mfb_util.Json.Float r.hp_inc);
        ("term_reduction", Mfb_util.Json.Float r.hp_reduction);
        ("astar_searches", Mfb_util.Json.Int r.hp_searches);
        ("heuristic_field_builds", Mfb_util.Json.Int r.hp_builds);
        ( "field_reuse",
          Mfb_util.Json.Float
            (float_of_int r.hp_searches
            /. float_of_int (max 1 r.hp_builds)) );
        ("wall_s", Mfb_util.Json.Float r.hp_wall);
      ]
  in
  let doc =
    Mfb_util.Json.Obj
      ([ ("benchmarks", Mfb_util.Json.List (List.map row_json rows)) ]
      @
      match largest with
      | None -> []
      | Some r ->
        [
          ( "largest_assay",
            Mfb_util.Json.Obj
              [
                ("name", Mfb_util.Json.String r.hp_name);
                ("term_reduction", Mfb_util.Json.Float r.hp_reduction);
                ("target", Mfb_util.Json.Float 3.0);
                ("met", Mfb_util.Json.Bool (r.hp_reduction >= 3.0));
              ] );
        ])
  in
  Out_channel.with_open_text hotpath_out (fun oc ->
      Mfb_util.Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" hotpath_out;
  match largest with Some r -> r.hp_reduction >= 3.0 | None -> false

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let bechamel_tests config pairs =
  let open Bechamel in
  let flow_test (inst : Suite.instance) =
    Test.make
      ~name:
        (Printf.sprintf "tableI/%s" (Mfb_bioassay.Seq_graph.name inst.graph))
      (Staged.stage (fun () -> Flow.run ~config inst.graph inst.allocation))
  in
  let cpa = Suite.cpa () in
  let sched =
    Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.Config.tc cpa.graph
      cpa.allocation
  in
  let nets =
    Mfb_place.Energy.weigh ~beta:config.beta ~gamma:config.gamma
      (Mfb_place.Net.of_schedule sched)
  in
  let placed =
    Mfb_place.Annealer.place ~params:config.sa
      ~rng:(Mfb_util.Rng.create config.seed) ~nets sched.components
  in
  let stage_tests =
    [
      Test.make ~name:"stage/schedule-cpa"
        (Staged.stage (fun () ->
             Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.tc cpa.graph
               cpa.allocation));
      Test.make ~name:"stage/place-cpa"
        (Staged.stage (fun () ->
             Mfb_place.Annealer.place
               ~params:{ config.sa with t0 = 100.; i_max = 40 }
               ~rng:(Mfb_util.Rng.create config.seed) ~nets sched.components));
      Test.make ~name:"stage/route-cpa"
        (Staged.stage (fun () ->
             Mfb_route.Router.route ~we:config.we ~tc:config.tc placed.chip
               sched));
      Test.make ~name:"fig8/cache-metric"
        (Staged.stage (fun () ->
             List.map
               (fun ((ours : Result_.t), _) ->
                 Mfb_schedule.Metrics.total_channel_cache_time ours.schedule)
               pairs));
      Test.make ~name:"fig9/wash-metric"
        (Staged.stage (fun () ->
             List.map
               (fun ((ours : Result_.t), _) -> ours.Result_.channel_wash_time)
               pairs));
    ]
  in
  Test.make_grouped ~name:"dcsa"
    (List.map flow_test (Suite.all ()) @ stage_tests)

let run_bechamel config pairs =
  let open Bechamel in
  section "Bechamel micro-benchmarks (monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg_bench =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg_bench [ instance ] (bechamel_tests config pairs) in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let table = Table.create ~headers:[ "benchmark"; "time per run" ] in
  Table.set_aligns table [ Table.Left; Table.Right ];
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter (fun (name, ns) -> Table.add_row table [ name; pretty ns ]) rows;
  Table.print table

(* ------------------------------------------------------------------ *)

let () =
  let config = Config.default in
  Printf.printf
    "DCSA physical synthesis benchmark harness\n\
     parameters: alpha=%.1f beta=%.1f gamma=%.1f T0=%.0f Imax=%d Tmin=%.1f \
     tc=%.1f we=%.0f jobs=%d\n"
    config.sa.alpha config.beta config.gamma config.sa.t0 config.sa.i_max
    config.sa.t_min config.tc config.we jobs;
  (* --hotpath-only: run just the hot-path counter section (CI smoke);
     the exit status reports the >= 3x term-reduction target. *)
  if Array.mem "--hotpath-only" Sys.argv then begin
    let met = hotpath_section config in
    write_trace ();
    exit (if met then 0 else 1)
  end;
  (* --exact-only: run just the heuristic-vs-exact oracle section (CI
     exact-oracle job); the exit status reports the never-worse and
     gap-populated targets. *)
  if Array.mem "--exact-only" Sys.argv then begin
    let met = exact_comparison config in
    write_trace ();
    exit (if met then 0 else 1)
  end;
  let pairs = run_suite config in
  table1 pairs;
  stage_timing pairs;
  parallel_scaling config;
  figures pairs;
  ignore (hotpath_section config : bool);
  ablations config;
  tc_sensitivity config;
  beta_gamma_study config;
  dedicated_comparison config;
  control_layer pairs;
  multistart_study config;
  wash_planning config pairs;
  ignore (exact_comparison config : bool);
  allocation_exploration config;
  io_study config;
  physical_validation config pairs;
  if not (Array.mem "--no-bechamel" Sys.argv) then run_bechamel config pairs;
  write_trace ()
