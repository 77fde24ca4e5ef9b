(* End-to-end tests for the synthesis flows, the Table-I suite, reporting,
   and the comparative claims of the paper (shape, not absolute values). *)

module Flow = Mfb_core.Flow
module Config = Mfb_core.Config
module Suite = Mfb_core.Suite
module Result_ = Mfb_core.Result
module Report = Mfb_core.Report
module Layout_render = Mfb_core.Layout_render
module Check = Mfb_schedule.Check
module Stats = Mfb_util.Stats

let cfg = Config.default

(* A faster annealing schedule for tests; same algorithm. *)
let fast_cfg =
  { cfg with sa = { cfg.sa with t0 = 200.; i_max = 40 } }

(* The comparative claims are checked under the paper's full parameter
   set; the cheaper [fast_cfg] is only for per-benchmark sanity tests. *)
let run_pairs =
  lazy
    (List.map
       (fun (inst : Suite.instance) ->
         ( Flow.run ~config:cfg inst.graph inst.allocation,
           Flow.run ~config:cfg ~variant:`Ba inst.graph inst.allocation ))
       (Suite.all ()))

(* --- Config --- *)

let test_default_config_matches_paper () =
  Alcotest.(check (float 1e-12)) "tc" 2.0 cfg.tc;
  Alcotest.(check (float 1e-12)) "we" 10.0 cfg.we;
  Alcotest.(check (float 1e-12)) "beta" 0.6 cfg.beta;
  Alcotest.(check (float 1e-12)) "gamma" 0.4 cfg.gamma;
  Alcotest.(check (float 1e-12)) "t0" 10000. cfg.sa.t0;
  Alcotest.(check (float 1e-12)) "tmin" 1.0 cfg.sa.t_min;
  Alcotest.(check (float 1e-12)) "alpha" 0.9 cfg.sa.alpha;
  Alcotest.(check int) "imax" 150 cfg.sa.i_max

let test_config_validation () =
  Alcotest.check_raises "tc" (Invalid_argument "Config: tc must be positive")
    (fun () -> Config.validate { cfg with tc = 0. });
  Alcotest.check_raises "we" (Invalid_argument "Config: we must be non-negative")
    (fun () -> Config.validate { cfg with we = -1. });
  Alcotest.check_raises "beta/gamma"
    (Invalid_argument "Config: beta and gamma must be non-negative")
    (fun () -> Config.validate { cfg with beta = -0.1 })

(* --- Suite --- *)

let test_suite_matches_table1 () =
  let expected =
    [ ("PCR", 7, "(3,0,0,0)"); ("IVD", 12, "(3,0,0,2)");
      ("CPA", 55, "(8,0,0,2)"); ("Synthetic1", 20, "(3,3,2,1)");
      ("Synthetic2", 30, "(5,2,2,2)"); ("Synthetic3", 40, "(6,4,4,2)");
      ("Synthetic4", 50, "(7,4,4,3)") ]
  in
  List.iter2
    (fun (name, ops, alloc) (inst : Suite.instance) ->
      Alcotest.(check string) "name" name
        (Mfb_bioassay.Seq_graph.name inst.graph);
      Alcotest.(check int) "ops" ops
        (Mfb_bioassay.Seq_graph.n_ops inst.graph);
      Alcotest.(check string) "allocation" alloc
        (Mfb_component.Allocation.to_string inst.allocation))
    expected (Suite.all ())

(* [find] builds only the instance it names; it must be the one at the
   same position of [all], under any casing of the name. *)
let test_suite_find () =
  let all = Suite.all () in
  Alcotest.(check (list string)) "names are the graph names of all"
    (List.map
       (fun (inst : Suite.instance) -> Mfb_bioassay.Seq_graph.name inst.graph)
       all)
    Suite.names;
  let fingerprint (inst : Suite.instance) =
    ( Mfb_bioassay.Seq_graph.name inst.graph,
      Mfb_bioassay.Seq_graph.n_ops inst.graph,
      Mfb_bioassay.Seq_graph.edges inst.graph,
      Mfb_component.Allocation.to_string inst.allocation )
  in
  List.iter2
    (fun name expected ->
      List.iter
        (fun query ->
          match Suite.find query with
          | None -> Alcotest.failf "find %S: none" query
          | Some inst ->
            Alcotest.(check bool) ("find " ^ query) true
              (fingerprint inst = fingerprint expected))
        [ String.lowercase_ascii name; String.uppercase_ascii name; name ])
    Suite.names all;
  Alcotest.(check bool) "unknown" true (Suite.find "nope" = None)

(* --- Flow sanity per benchmark --- *)

let flow_sanity_tests =
  List.concat_map
    (fun (inst : Suite.instance) ->
      let name = Mfb_bioassay.Seq_graph.name inst.graph in
      [
        Alcotest.test_case (name ^ " flow sane") `Quick (fun () ->
            let r = Flow.run ~config:fast_cfg inst.graph inst.allocation in
            Alcotest.(check bool) "schedule legal" true
              (Check.validate ~tc:fast_cfg.tc r.schedule = []);
            Alcotest.(check bool) "utilization range" true
              (0. <= r.utilization && r.utilization <= 1.);
            Alcotest.(check bool) "positive exec" true (r.execution_time > 0.);
            Alcotest.(check bool) "chip legal" true
              (Mfb_place.Chip.legal r.chip);
            Alcotest.(check bool) "cache non-negative" true
              (r.channel_cache_time >= 0.);
            Alcotest.(check bool) "finite metrics" true
              (Float.is_finite r.channel_length_mm
              && Float.is_finite r.channel_wash_time));
      ])
    (Suite.all ())

let baseline_sanity_tests =
  List.concat_map
    (fun (inst : Suite.instance) ->
      let name = Mfb_bioassay.Seq_graph.name inst.graph in
      [
        Alcotest.test_case (name ^ " baseline sane") `Quick (fun () ->
            let r =
              Flow.run ~config:fast_cfg ~variant:`Ba inst.graph inst.allocation
            in
            Alcotest.(check bool) "schedule legal" true
              (Check.validate ~tc:fast_cfg.tc r.schedule = []);
            Alcotest.(check bool) "utilization range" true
              (0. <= r.utilization && r.utilization <= 1.);
            Alcotest.(check bool) "chip legal" true
              (Mfb_place.Chip.legal r.chip));
      ])
    (Suite.all ())

(* --- The paper's comparative claims (shape) --- *)

let test_execution_time_claim () =
  (* Table I: 0.0%-10.5% execution-time reduction; never a regression. *)
  List.iter
    (fun ((ours : Result_.t), (ba : Result_.t)) ->
      Alcotest.(check bool)
        (ours.benchmark ^ " exec ours <= ba")
        true
        (ours.execution_time <= ba.execution_time +. 1e-6))
    (Lazy.force run_pairs)

let test_utilization_claim () =
  (* Table I: resource utilization never lower, +12.5% on average. *)
  List.iter
    (fun ((ours : Result_.t), (ba : Result_.t)) ->
      Alcotest.(check bool)
        (ours.benchmark ^ " util ours >= ba")
        true
        (ours.utilization >= ba.utilization -. 1e-6))
    (Lazy.force run_pairs)

let test_channel_length_claim () =
  (* Table I: 5.7% average channel-length reduction.  Tiny benchmarks make
     per-row percentages unstable (a 5-cell difference on PCR is 250%), so
     the reproduction asserts the robust form of the claim: the suite-wide
     total shrinks and a strict majority of rows does not regress. *)
  let pairs = Lazy.force run_pairs in
  let total f = Stats.sum (List.map f pairs) in
  Alcotest.(check bool) "total channel length reduced" true
    (total (fun (ours, _) -> ours.Result_.channel_length_mm)
    < total (fun (_, ba) -> ba.Result_.channel_length_mm));
  let non_regressing =
    List.length
      (List.filter
         (fun ((ours : Result_.t), (ba : Result_.t)) ->
           ours.channel_length_mm <= ba.channel_length_mm +. 1e-6)
         pairs)
  in
  Alcotest.(check bool) "majority of rows do not regress" true
    (2 * non_regressing > List.length pairs)

let test_cache_time_claim () =
  (* Fig. 8: total channel cache time reduced, markedly on large inputs. *)
  let imps =
    List.map
      (fun ((ours : Result_.t), (ba : Result_.t)) ->
        Stats.percent_improvement ~ours:ours.channel_cache_time
          ~baseline:ba.channel_cache_time)
      (Lazy.force run_pairs)
  in
  Alcotest.(check bool) "average cache improvement > 0" true
    (Stats.mean imps > 0.)

let test_wash_time_claim () =
  (* Fig. 9: total channel wash time reduced. *)
  let imps =
    List.map
      (fun ((ours : Result_.t), (ba : Result_.t)) ->
        Stats.percent_improvement ~ours:ours.channel_wash_time
          ~baseline:ba.channel_wash_time)
      (Lazy.force run_pairs)
  in
  Alcotest.(check bool) "average wash improvement > 0" true
    (Stats.mean imps > 0.)

(* --- Determinism and ablations --- *)

let test_flow_deterministic () =
  let inst = Suite.synthetic1 () in
  let a = Flow.run ~config:fast_cfg inst.graph inst.allocation in
  let b = Flow.run ~config:fast_cfg inst.graph inst.allocation in
  Alcotest.(check (float 1e-9)) "exec" a.execution_time b.execution_time;
  Alcotest.(check (float 1e-9)) "channel" a.channel_length_mm
    b.channel_length_mm;
  Alcotest.(check (float 1e-9)) "util" a.utilization b.utilization

let test_ablations_run () =
  let inst = Suite.synthetic1 () in
  List.iter
    (fun variant ->
      let r = Flow.run ~config:fast_cfg ~variant inst.graph inst.allocation in
      Alcotest.(check string) "flow name" (Flow.name variant) r.flow;
      Alcotest.(check bool)
        (r.flow ^ " legal")
        true
        (Check.validate ~tc:fast_cfg.tc r.schedule = []))
    Flow.variants

(* Warm start and repair reuse the flow's schedule and retime stages;
   composed by hand they must rebuild [Flow.run]'s final schedule. *)
let test_shared_stages_compose () =
  let delayed = ref 0 in
  List.iter
    (fun (inst : Suite.instance) ->
      let r = Flow.run ~config:fast_cfg inst.graph inst.allocation in
      let sched, decision =
        Flow.schedule ~config:fast_cfg `Ours inst.graph inst.allocation
      in
      Alcotest.(check bool) "heuristic: no decision" true (decision = None);
      let fresh = List.map (fun t -> (t, 0.)) r.routing.tasks in
      Alcotest.(check bool)
        (r.benchmark ^ ": schedule then retime = Flow.run")
        true
        (Flow.retime sched fresh = r.schedule);
      (* delays a task had already absorbed postpone nothing *)
      let absorbed =
        List.map (fun (t : Mfb_route.Routed.task) -> (t, t.delay)) r.routing.tasks
      in
      Alcotest.(check bool) (r.benchmark ^ ": absorbed delays") true
        (Flow.retime sched absorbed == sched);
      if r.schedule <> sched then incr delayed)
    (Suite.all ());
  Alcotest.(check bool) "some benchmark is retimed" true (!delayed > 0);
  Alcotest.check_raises "BA binding takes no exact backend"
    (Invalid_argument
       "Flow.schedule: exact/portfolio backends only replace the Case-I \
        scheduler")
    (fun () ->
      let pcr = Suite.pcr () in
      ignore
        (Flow.schedule
           ~config:{ fast_cfg with backend = Mfb_schedule.Portfolio.Exact }
           `Ba pcr.graph pcr.allocation))

(* The MD5 of [Result.to_json] without its two wall-clock fields pins
   every deterministic byte of an ablation run. *)
let digest_of (r : Result_.t) =
  match Result_.to_json r with
  | Mfb_util.Json.Obj fields ->
    let fields =
      List.filter
        (fun (k, _) -> k <> "cpu_time_s" && k <> "wall_time_s")
        fields
    in
    Mfb_util.Json.Obj fields |> Mfb_util.Json.to_string |> Digest.string
    |> Digest.to_hex
  | _ -> Alcotest.fail "Result.to_json is not an object"

let test_ablation_digests () =
  let pinned =
    [
      ( `No_case1,
        "d327d84e934a837a1bed006dd3d003dc",
        "3806893ac935d660f806f1afe93a587b" );
      ( `No_cp,
        "c87cbc7a85064a24941ef4e3b721e477",
        "46b891da6fc37735dc99a0a8b8bc8f1a" );
      ( `No_weights,
        "09a9868175bdd85bb7f1857f3a6b6ca7",
        "877cfde07cffce03a465a5ac4a41842d" );
      ( `Force_directed,
        "a777221a2b9d6fd1200d2af9aaab9917",
        "7cb3a4c6d7c85714c26e6ce8b5da3d6d" );
      ( `Negotiated,
        "7b21b15331f233fb4ca7df28b61f6d21",
        "f4da3a3012aa2b1b090b648c81735298" );
    ]
  in
  List.iter
    (fun (variant, pcr, cpa) ->
      List.iter
        (fun ((inst : Suite.instance), expected) ->
          let r = Flow.run ~config:cfg ~variant inst.graph inst.allocation in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s" r.benchmark r.flow)
            expected (digest_of r))
        [ (Suite.pcr (), pcr); (Suite.cpa (), cpa) ])
    pinned

(* The summary digests above cannot see a re-routed path whose totals
   happen to agree, so this one hashes every routed task in commit order
   — edge, kind, path, delay, pre-wash and washed cells, floats in exact
   hex — plus each design's unresolved count, over the seven Table I
   designs.  With [route_io] the I/O router's dispense and waste runs are
   pinned too. *)
let routing_digest variant ~route_io =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (inst : Suite.instance) ->
      let r =
        Flow.run ~config:cfg ~variant ~route_io inst.graph inst.allocation
      in
      Printf.bprintf buf "%s unresolved=%d\n" r.benchmark
        r.routing.unresolved;
      List.iter
        (fun (t : Mfb_route.Routed.task) ->
          let kind =
            match t.kind with
            | Mfb_route.Routed.Transport -> "T"
            | Dispense -> "D"
            | Waste -> "W"
          in
          Printf.bprintf buf "%d>%d %s delay=%h wash=%h/%d"
            (fst t.transport.edge) (snd t.transport.edge) kind t.delay
            t.pre_wash t.washed_cells;
          List.iter (fun (x, y) -> Printf.bprintf buf " %d,%d" x y) t.path;
          Buffer.add_char buf '\n')
        r.routing.tasks)
    (Suite.all ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_routing_digests () =
  List.iter
    (fun (variant, plain, io) ->
      List.iter
        (fun (route_io, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s route_io=%b" (Flow.name variant) route_io)
            expected
            (routing_digest variant ~route_io))
        [ (false, plain); (true, io) ])
    [
      ( `Ours,
        "c1b7b3563a0b121ade6f77c7eaf8dd26",
        "a835b5a353e1a1fc757dfadb776c1b88" );
      ( `Ba,
        "4b8d0ef13e783e5b966a9283f183962b",
        "f8c9970853e727890e9d23c3a8c2d110" );
      ( `No_weights,
        "48f0842d465898eb6792db85ba9d8a36",
        "309dc8db9e8efa74c492e076321d8755" );
      ( `Negotiated,
        "bbf1d4d15420e724d51c8ec6216d9b27",
        "0259d51aeb955f56164a9ef59711b210" );
    ]

let test_flow_exact_truncation_surfaces () =
  (* A starved fuel budget must still produce a legal schedule (the
     heuristic incumbent), flag the truncation in the JSON result, and
     never come out worse than the heuristic it started from. *)
  let inst = Suite.ivd () in
  let config =
    { fast_cfg with backend = Mfb_schedule.Portfolio.Exact; exact_fuel = 100 }
  in
  let r = Flow.run ~config inst.graph inst.allocation in
  (match r.decision with
  | None -> Alcotest.fail "exact backend must record a decision"
  | Some d ->
    Alcotest.(check bool) "truncated" true d.truncated;
    Alcotest.(check bool) "not optimal" false d.optimal;
    Alcotest.(check int) "fuel echoed" 100 d.fuel;
    Alcotest.(check bool) "never worse than heuristic" true
      (d.makespan <= d.heuristic_makespan +. 1e-9));
  Alcotest.(check bool) "legal schedule" true
    (Check.validate ~tc:config.tc r.schedule = []);
  let json = Mfb_util.Json.to_string (Result_.to_json r) in
  Alcotest.(check bool) "truncated flag in json" true
    (Testkit.contains json "\"truncated\":true");
  Alcotest.(check bool) "backend section in json" true
    (Testkit.contains json "\"backend\"")

(* --- Reporting --- *)

let test_table1_render () =
  let pairs = Lazy.force run_pairs in
  let s = Report.table1 pairs in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Testkit.contains s name))
    Suite.names;
  Alcotest.(check bool) "average row" true (Testkit.contains s "Average")

let test_figures_render () =
  let pairs = Lazy.force run_pairs in
  Alcotest.(check bool) "fig8 title" true
    (Testkit.contains (Report.fig8 pairs) "Figure 8");
  Alcotest.(check bool) "fig9 title" true
    (Testkit.contains (Report.fig9 pairs) "Figure 9");
  Alcotest.(check bool) "bars drawn" true
    (Testkit.contains (Report.fig9 pairs) "#")

let test_suite_json () =
  let pairs = Lazy.force run_pairs in
  let json = Mfb_util.Json.to_string (Report.suite_to_json pairs) in
  Alcotest.(check bool) "has benchmark field" true
    (Testkit.contains json "\"benchmark\"");
  Alcotest.(check bool) "has both flows" true
    (Testkit.contains json "\"ours\"" && Testkit.contains json "\"ba\"")

let test_timing_table_empty () =
  (* No results: a header-only table, not an exception. *)
  let s = Report.timing_table [] in
  Alcotest.(check bool) "header present" true (Testkit.contains s "Wall (s)");
  Alcotest.(check bool) "no data rows" false (Testkit.contains s "total")

let test_timing_table_render () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let s = Report.timing_table [ ours ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Testkit.contains s needle))
    [ "schedule"; "place"; "route"; "total"; ours.benchmark ]

let test_metrics_table () =
  Alcotest.(check bool) "empty input renders header" true
    (Testkit.contains (Report.metrics_table []) "Metric");
  let module Telemetry = Mfb_util.Telemetry in
  Telemetry.install (Telemetry.make_sink ());
  let r =
    Fun.protect ~finally:Telemetry.uninstall (fun () ->
        let inst = Suite.pcr () in
        Flow.run ~config:fast_cfg inst.graph inst.allocation)
  in
  Alcotest.(check bool) "run collected metrics" true (r.metrics <> []);
  let s = Report.metrics_table [ r ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Testkit.contains s needle))
    [ "sa.accepted"; "astar.pops"; "ready_queue.depth" ];
  (* The aggregates also reach the JSON result. *)
  Alcotest.(check bool) "metrics in to_json" true
    (Testkit.contains
       (Mfb_util.Json.to_string (Result_.to_json r))
       "\"metrics\"")

let test_result_json () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let json = Mfb_util.Json.to_string (Result_.to_json ours) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true
        (Testkit.contains json field))
    [ "execution_time_s"; "utilization"; "channel_length_mm";
      "channel_cache_time_s"; "channel_wash_time_s"; "cpu_time_s" ]

let test_gantt_render () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let s = Mfb_core.Gantt.render ours.schedule in
  Alcotest.(check bool) "component lanes" true (Testkit.contains s "Mixer0");
  Alcotest.(check bool) "operation blocks" true (Testkit.contains s "#");
  Alcotest.(check bool) "op labels" true (Testkit.contains s "o0");
  Alcotest.(check bool) "makespan printed" true (Testkit.contains s "22.2");
  (* One lane per component plus header and axis. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "enough lines" true
    (List.length lines >= Array.length ours.schedule.components + 3)

let test_gantt_width () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let s = Mfb_core.Gantt.render ~width:40 ours.schedule in
  let too_long =
    List.exists (fun l -> String.length l > 70) (String.split_on_char '\n' s)
  in
  Alcotest.(check bool) "respects width" false too_long

let test_svg_render () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let s = Mfb_core.Layout_svg.render ours in
  Alcotest.(check bool) "opens svg" true
    (String.length s > 5 && String.sub s 0 4 = "<svg");
  Alcotest.(check bool) "closes svg" true (Testkit.contains s "</svg>");
  Alcotest.(check bool) "has components" true (Testkit.contains s "Mixer0");
  Alcotest.(check bool) "has channel cells" true
    (Testkit.contains s "#b6d0e8");
  (* Balanced rect elements: every <rect is self-closed. *)
  let count needle =
    let rec loop i acc =
      if i + String.length needle > String.length s then acc
      else if String.sub s i (String.length needle) = needle then
        loop (i + 1) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check bool) "rects self-closed" true
    (count "<rect" = count "/>" - count "<circle" - count "<line")

let test_html_report () =
  let pairs = Lazy.force run_pairs in
  let html = Mfb_core.Report_html.render pairs in
  Alcotest.(check bool) "doctype" true
    (String.length html > 15 && String.sub html 0 15 = "<!DOCTYPE html>");
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Testkit.contains html needle))
    [ "Table I"; "Figure 8"; "Figure 9"; "<svg"; "</html>"; "PCR";
      "Synthetic4" ]

let test_layout_render () =
  let ours, _ = List.hd (Lazy.force run_pairs) in
  let s = Layout_render.render ours in
  Alcotest.(check bool) "mixer letters" true (Testkit.contains s "M");
  Alcotest.(check bool) "port marks" true (Testkit.contains s "o");
  Alcotest.(check bool) "legend" true (Testkit.contains s "Mixer0");
  (* One canvas line per grid row. *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "canvas present" true
    (List.length lines > ours.chip.height)

(* --- Whole-flow fuzzing: every stage invariant on random assays --- *)

let qtest ?(count = 15) name gen prop =
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let random_instance_gen =
  QCheck2.Gen.(
    map2
      (fun n seed ->
        let graph =
          Mfb_bioassay.Synthetic.generate
            ~name:(Printf.sprintf "fuzz-%d-%d" n seed)
            { Mfb_bioassay.Synthetic.default_params with
              n_ops = n + 5;
              kind_weights = [| 4; 2; 2; 1 |];
              seed }
        in
        let allocation =
          Mfb_component.Allocation.make
            ~mixers:(2 + (seed land 1))
            ~heaters:1 ~filters:1 ~detectors:1
        in
        (graph, allocation))
      (int_bound 25) (int_bound 10_000))

let prop_whole_flow_invariants =
  qtest "flow output passes Check, DRC, and replay on random assays"
    random_instance_gen
    (fun (graph, allocation) ->
      let r = Flow.run ~config:fast_cfg graph allocation in
      (* The audit runs Check, DRC and the commit-order replay. *)
      Mfb_repair.Audit.check ~config:fast_cfg r.schedule r.chip r.routing = []
      && 0. <= r.utilization
      && r.utilization <= 1.)

let prop_whole_flow_baseline_invariants =
  qtest "baseline output passes Check and DRC on random assays"
    random_instance_gen
    (fun (graph, allocation) ->
      let r = Flow.run ~config:fast_cfg ~variant:`Ba graph allocation in
      Check.validate ~tc:fast_cfg.tc r.schedule = []
      && Mfb_route.Drc.check r.chip r.routing = [])

(* --- Allocation exploration --- *)

let test_allocator_frontier () =
  let inst = Suite.synthetic1 () in
  let frontier = Mfb_core.Allocator.explore inst.graph in
  Alcotest.(check bool) "non-empty" true (frontier <> []);
  (* Pareto: strictly increasing components, strictly decreasing time. *)
  let rec pareto = function
    | (a : Mfb_core.Allocator.point) :: (b :: _ as rest) ->
      a.components < b.components
      && a.completion_time > b.completion_time +. 1e-9
      && pareto rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "frontier is pareto" true (pareto frontier);
  (* Every point covers the graph and evaluates consistently. *)
  List.iter
    (fun (p : Mfb_core.Allocator.point) ->
      Alcotest.(check bool) "covers" true
        (Mfb_component.Allocation.covers p.allocation inst.graph);
      Alcotest.(check int) "component count"
        (Mfb_component.Allocation.total p.allocation)
        p.components)
    frontier

let test_allocator_knee () =
  let inst = Suite.synthetic1 () in
  let frontier = Mfb_core.Allocator.explore inst.graph in
  match Mfb_core.Allocator.knee frontier with
  | None -> Alcotest.fail "expected a knee"
  | Some k ->
    let fastest =
      List.fold_left
        (fun acc (p : Mfb_core.Allocator.point) ->
          Float.min acc p.completion_time)
        infinity frontier
    in
    Alcotest.(check bool) "within 5% of fastest" true
      (k.completion_time <= (fastest *. 1.05) +. 1e-9);
    Alcotest.(check bool) "no smaller point qualifies" true
      (List.for_all
         (fun (p : Mfb_core.Allocator.point) ->
           p.components >= k.components
           || p.completion_time > fastest *. 1.05)
         frontier);
    Alcotest.(check bool) "knee of empty is None" true
      (Mfb_core.Allocator.knee [] = None)

let test_allocator_respects_kinds () =
  (* PCR uses only mixers: the explorer must never allocate other kinds. *)
  let inst = Suite.pcr () in
  List.iter
    (fun (p : Mfb_core.Allocator.point) ->
      let a = p.allocation in
      Alcotest.(check int) "no heaters" 0
        (Mfb_component.Allocation.count a Heat);
      Alcotest.(check int) "no filters" 0
        (Mfb_component.Allocation.count a Filter);
      Alcotest.(check int) "no detectors" 0
        (Mfb_component.Allocation.count a Detect))
    (Mfb_core.Allocator.explore inst.graph)

(* --- Large-scale stress (runs under the default profile; skipped with
   `dune runtest -- -q`) --- *)

let test_large_assay_stress () =
  let graph =
    Mfb_bioassay.Synthetic.generate ~name:"stress-100"
      { Mfb_bioassay.Synthetic.default_params with
        n_ops = 100;
        kind_weights = [| 5; 3; 2; 1 |];
        layer_width = 10;
        seed = 2026 }
  in
  let allocation =
    Mfb_component.Allocation.make ~mixers:8 ~heaters:4 ~filters:3 ~detectors:2
  in
  let ours = Flow.run ~config:fast_cfg graph allocation in
  let ba = Flow.run ~config:fast_cfg ~variant:`Ba graph allocation in
  Alcotest.(check bool) "legal at 100 ops" true
    (Check.validate ~tc:fast_cfg.tc ours.schedule = []);
  Alcotest.(check bool) "drc clean at 100 ops" true
    (Mfb_route.Drc.check ours.chip ours.routing = []);
  Alcotest.(check bool) "still beats the baseline" true
    (ours.execution_time <= ba.execution_time +. 1e-6);
  Alcotest.(check (list string)) "audit clean at 100 ops" []
    (Mfb_repair.Audit.check ~config:fast_cfg ours.schedule ours.chip
       ours.routing)

let suites =
  [
    ( "core.config",
      [
        Alcotest.test_case "paper parameters" `Quick
          test_default_config_matches_paper;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
    ( "core.suite",
      [
        Alcotest.test_case "table-1 instances" `Quick
          test_suite_matches_table1;
        Alcotest.test_case "find" `Quick test_suite_find;
      ] );
    ("core.flow", flow_sanity_tests);
    ("core.baseline", baseline_sanity_tests);
    ( "core.claims",
      [
        Alcotest.test_case "execution time (Table I)" `Quick
          test_execution_time_claim;
        Alcotest.test_case "resource utilization (Table I)" `Quick
          test_utilization_claim;
        Alcotest.test_case "channel length (Table I)" `Quick
          test_channel_length_claim;
        Alcotest.test_case "cache time (Fig. 8)" `Quick test_cache_time_claim;
        Alcotest.test_case "wash time (Fig. 9)" `Quick test_wash_time_claim;
      ] );
    ( "core.determinism",
      [
        Alcotest.test_case "flow deterministic" `Quick test_flow_deterministic;
        Alcotest.test_case "ablations run" `Quick test_ablations_run;
        Alcotest.test_case "ablation digests" `Quick test_ablation_digests;
        Alcotest.test_case "routing digests" `Quick test_routing_digests;
        Alcotest.test_case "shared stages compose" `Quick
          test_shared_stages_compose;
        Alcotest.test_case "exact truncation surfaces" `Quick
          test_flow_exact_truncation_surfaces;
      ] );
    ( "core.fuzz",
      [ prop_whole_flow_invariants; prop_whole_flow_baseline_invariants ] );
    ( "core.stress",
      [ Alcotest.test_case "100-operation assay" `Slow test_large_assay_stress ] );
    ( "core.allocator",
      [
        Alcotest.test_case "pareto frontier" `Quick test_allocator_frontier;
        Alcotest.test_case "knee" `Quick test_allocator_knee;
        Alcotest.test_case "respects kinds" `Quick
          test_allocator_respects_kinds;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "table1 render" `Quick test_table1_render;
        Alcotest.test_case "figures render" `Quick test_figures_render;
        Alcotest.test_case "suite json" `Quick test_suite_json;
        Alcotest.test_case "timing table empty" `Quick
          test_timing_table_empty;
        Alcotest.test_case "timing table render" `Quick
          test_timing_table_render;
        Alcotest.test_case "metrics table" `Quick test_metrics_table;
        Alcotest.test_case "result json" `Quick test_result_json;
        Alcotest.test_case "layout render" `Quick test_layout_render;
        Alcotest.test_case "gantt render" `Quick test_gantt_render;
        Alcotest.test_case "gantt width" `Quick test_gantt_width;
        Alcotest.test_case "svg render" `Quick test_svg_render;
        Alcotest.test_case "html report" `Quick test_html_report;
      ] );
  ]
