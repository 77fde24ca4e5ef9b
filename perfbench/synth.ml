(* The synthesis workloads, [table1] and [scale]: a closed loop of passes
   over a fixed list of assays, each synthesised in this process with
   [jobs = 1].

   Untraced passes call [Flow.run] / [Baseline.run] exactly as a user
   would and give the end-to-end numbers.  Traced passes install a
   telemetry sink and call the stages [Flow.run] is made of one at a
   time, timing each; every traced result must reproduce the untraced
   summary byte for byte, or the per-layer numbers would describe a
   different program. *)

module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module Config = Mfb_core.Config
module Result = Mfb_core.Result

type assay = {
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
}

type job = { assay : assay; flow : [ `Ours | `Ba ] }

let label j =
  Printf.sprintf "%s/%s"
    (Mfb_bioassay.Seq_graph.name j.assay.graph)
    (match j.flow with `Ours -> "ours" | `Ba -> "ba")

(* [rotate k l] starts [l] at position [k mod length]. *)
let rotate k l =
  let n = List.length l in
  List.init n (fun i -> List.nth l ((((i + k) mod n) + n) mod n))

(* The seven Table I assays at their Table I allocations, through both
   flows.  They are fixed by the paper, so the seed only rotates the
   order of a pass. *)
let table1_jobs ~seed =
  Mfb_core.Suite.all ()
  |> List.concat_map (fun (inst : Mfb_core.Suite.instance) ->
         let assay = { graph = inst.graph; allocation = inst.allocation } in
         [ { assay; flow = `Ours }; { assay; flow = `Ba } ])
  |> rotate (2 * seed)

(* Synthetic assays of 125 to 500 operations, the layers and the
   allocation both grown with size; routing's share of a synthesis grows
   with it to about 90%.  A 1000-op rung takes 8-12 s, too long to
   repeat within a run, and single passes swung by a third between runs.
   The generator seeds are fixed: makespan and utilization swing by 40%
   from one large instance to the next, which would hide any quality
   regression, so the seed only rotates the ladder. *)
let scale_jobs ~smoke ~seed =
  (if smoke then [ 30; 60 ] else [ 125; 250; 500 ])
  |> List.map (fun n ->
         let graph =
           Mfb_bioassay.Synthetic.generate
             ~name:(Printf.sprintf "scale-%d" n)
             {
               Mfb_bioassay.Synthetic.default_params with
               n_ops = n;
               layer_width = max 4 (n / 25);
               seed = n;
             }
         in
         let m = max 2 (n / 16) in
         let allocation =
           Mfb_component.Allocation.make ~mixers:m ~heaters:(max 1 (m / 2))
             ~filters:(max 1 (m / 4)) ~detectors:(max 1 (m / 4))
         in
         { assay = { graph; allocation }; flow = `Ours })
  |> rotate seed

let config = Config.default

let run_job j =
  match j.flow with
  | `Ours -> Mfb_core.Flow.run ~config ~jobs:1 j.assay.graph j.assay.allocation
  | `Ba -> Mfb_core.Baseline.run ~config j.assay.graph j.assay.allocation

let summary r = Json.to_string (Result.summary_to_json (Result.summarize r))

(* The correctness gate: timing legality and geometric design rules. *)
let audit (r : Result.t) =
  Mfb_schedule.Check.validate ~tc:config.tc r.schedule = []
  && Mfb_route.Drc.check r.chip r.routing = []

(* Per-layer accumulators, summed over every traced pass. *)
let add acc k v =
  Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.)

let get acc k = Option.value (Hashtbl.find_opt acc k) ~default:0.

(* Routing postponements flow back into the schedule, as in [Flow.run]. *)
let retime (sched : Mfb_schedule.Types.t) (routing : Mfb_route.Routed.result) =
  let delayed kind =
    List.filter_map
      (fun (task : Mfb_route.Routed.task) ->
        if task.kind = kind && task.delay > 0. then Some task else None)
      routing.tasks
  in
  let delays =
    List.map
      (fun (t : Mfb_route.Routed.task) ->
        (t.transport.Mfb_schedule.Types.edge, t.delay))
      (delayed Mfb_route.Routed.Transport)
  and op_delays =
    List.map
      (fun (t : Mfb_route.Routed.task) ->
        (fst t.transport.Mfb_schedule.Types.edge, t.delay))
      (delayed Mfb_route.Routed.Dispense)
  in
  if delays = [] && op_delays = [] then sched
  else Mfb_schedule.Retime.with_transport_delays ~op_delays sched ~delays

(* The paper flow, stage by stage, under a fresh telemetry sink. *)
let staged acc (a : assay) =
  let sink = Telemetry.make_sink () in
  Telemetry.install sink;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let stage name f =
    let w0 = Kit.alloc_words () in
    let v, dt = Kit.time f in
    add acc (name ^ ".self_s") dt;
    add acc (name ^ ".words") (Kit.alloc_words () -. w0);
    v
  in
  let sched =
    stage "schedule" (fun () ->
        Mfb_schedule.Dcsa_scheduler.schedule ~tc:config.tc a.graph a.allocation)
  in
  let sa =
    stage "place" (fun () ->
        let nets = Mfb_place.Net.of_schedule sched in
        let weighted =
          Mfb_place.Energy.weigh ~beta:config.beta ~gamma:config.gamma nets
        in
        Mfb_place.Annealer.anneal_multi ~params:config.sa ~jobs:1
          ~restarts:config.sa_restarts
          ~rng:(Mfb_util.Rng.create config.seed)
          ~nets:weighted sched.components)
  in
  let routing =
    stage "route" (fun () ->
        Mfb_route.Router.route ~weight_update:true ~route_io:false
          ~we:config.we ~tc:config.tc sa.chip sched)
  in
  let final = stage "retime" (fun () -> retime sched routing) in
  let result =
    stage "result" (fun () ->
        Result.of_stages
          ~benchmark:(Mfb_bioassay.Seq_graph.name a.graph)
          ~flow:"ours" ~cpu_time:0. ~schedule:final ~chip:sa.chip ~routing ())
  in
  let counter cat name key =
    add acc key (float_of_int (Telemetry.counter_total sink ~cat name))
  in
  counter "schedule" "transports" "schedule.transports";
  counter "place" "delta_evals" "place.delta_evals";
  counter "route" "astar.searches" "route.astar_searches";
  counter "route" "astar.pops" "route.astar_pops";
  counter "route" "heuristic_field_builds" "route.field_builds";
  counter "route" "conflict.rejections" "route.conflict_rejections";
  add acc "place.sa_attempted" (float_of_int sa.attempted);
  add acc "place.sa_accepted" (float_of_int sa.accepted);
  result

let run (args : Kit.args) =
  let make () =
    match args.workload with
    | "table1" -> table1_jobs ~seed:args.seed
    | _ -> scale_jobs ~smoke:args.smoke ~seed:args.seed
  in
  let setups = List.init 21 (fun _ -> snd (Kit.time make)) in
  let jobs = make () in
  let attempted = ref 0 and failed = ref 0 in
  let fail why j =
    incr failed;
    Printf.eprintf "perfbench: %s failed: %s\n%!" (label j) why
  in
  (* Summaries of the first untraced pass: later passes, traced ones
     included, must reproduce them. *)
  let reference = Hashtbl.create 16 in
  let quality = ref [] in
  let check j (r : Result.t) =
    if not (audit r) then fail "audit (Check.validate / Drc.check)" j;
    match Hashtbl.find_opt reference (label j) with
    | None ->
      Hashtbl.add reference (label j) (summary r);
      if j.flow = `Ours then
        quality :=
          (r.execution_time, r.channel_length_mm, r.utilization) :: !quality
    | Some s -> if s <> summary r then fail "result differs from first pass" j
  in
  let loop budget pass =
    let t0 = Unix.gettimeofday () in
    let rec go acc =
      Gc.full_major ();
      let p = pass () in
      let acc = p :: acc in
      if Unix.gettimeofday () -. t0 +. p <= budget then go acc else acc
    in
    go []
  in
  let budget = if args.trace then args.seconds /. 2. else args.seconds in
  let latencies = ref [] in
  (* Peak memory after the first pass: later passes only add heap the
     GC has not handed back, and how many fit in the budget varies. *)
  let peak_rss = ref 0. in
  let untraced_pass () =
    let total =
      List.fold_left
        (fun total j ->
          incr attempted;
          match Kit.time (fun () -> run_job j) with
          | r, dt ->
            latencies := (dt *. 1000.) :: !latencies;
            check j r;
            total +. dt
          | exception e ->
            fail (Printexc.to_string e) j;
            total)
        0. jobs
    in
    if !peak_rss = 0. then peak_rss := Kit.peak_rss_mb "self";
    total
  in
  let passes = loop budget untraced_pass in
  let acc = Hashtbl.create 32 in
  let traced_passes =
    if not args.trace then []
    else
      loop budget (fun () ->
          List.fold_left
            (fun total j ->
              incr attempted;
              match
                Kit.time (fun () ->
                    match j.flow with
                    | `Ours -> staged acc j.assay
                    | `Ba ->
                      let r, dt = Kit.time (fun () -> run_job j) in
                      add acc "baseline.self_s" dt;
                      r)
              with
              | r, dt ->
                let ok, audit_s = Kit.time (fun () -> audit r) in
                add acc "audit.self_s" audit_s;
                if not ok then fail "audit (Check.validate / Drc.check)" j;
                (match Hashtbl.find_opt reference (label j) with
                 | Some s when s = summary r -> ()
                 | _ -> fail "recomposition differs from Flow.run" j);
                total +. dt
              | exception e ->
                fail (Printexc.to_string e) j;
                total)
            0. jobs)
  in
  let ours = !quality in
  let sum f = List.fold_left (fun s q -> s +. f q) 0. ours in
  let p50 = Kit.percentile !latencies 0.5
  and p99 = Kit.percentile !latencies 0.99 in
  Kit.report_pct "p50_ms" p50;
  Kit.report_pct "p99_ms" p99;
  let e2e =
    [
      Kit.m "setup_s" "s" (Kit.median setups);
      (* The fastest pass: the host slows down for seconds at a time, and
         the median pass swung by a third between runs. *)
      Kit.m "synth_s" "s" (List.fold_left Float.min Float.infinity passes);
      Kit.m "p50_ms" "ms" p50.value;
      Kit.m "makespan_s" "assay_s" (sum (fun (m, _, _) -> m));
      Kit.m "channel_mm" "mm" (sum (fun (_, c, _) -> c));
      Kit.m "utilization" "ratio"
        (sum (fun (_, _, u) -> u) /. float_of_int (List.length ours));
      Kit.m "peak_rss_mb" "MB" !peak_rss;
    ]
  in
  let layers =
    if not args.trace then []
    else begin
      let n = float_of_int (List.length traced_passes) in
      let per k = get acc k /. n in
      let traced = Kit.mean traced_passes in
      let self =
        [ "schedule"; "place"; "route"; "retime"; "result"; "baseline" ]
        |> List.map (fun l -> per (l ^ ".self_s"))
        |> List.fold_left ( +. ) 0.
      in
      [
        ("bench.p99_ms", p99.value);
        ("place.self_s", per "place.self_s");
        ("place.sa_attempted", per "place.sa_attempted");
        ( "place.accept_ratio",
          Kit.ratio (get acc "place.sa_accepted") (get acc "place.sa_attempted") );
        ( "place.terms_per_move",
          Kit.ratio (get acc "place.delta_evals") (get acc "place.sa_attempted") );
        ("place.alloc_mw", per "place.words" /. 1e6);
        ("route.self_s", per "route.self_s");
        ("route.astar_searches", per "route.astar_searches");
        ("route.astar_pops", per "route.astar_pops");
        ( "route.pops_per_search",
          Kit.ratio (get acc "route.astar_pops") (get acc "route.astar_searches") );
        ("route.field_builds", per "route.field_builds");
        ( "route.field_reuse",
          1.
          -. Kit.ratio (get acc "route.field_builds")
               (get acc "route.astar_searches") );
        ("route.conflict_rejections", per "route.conflict_rejections");
        ("route.alloc_mw", per "route.words" /. 1e6);
        ("schedule.self_s", per "schedule.self_s");
        ("schedule.transports", per "schedule.transports");
        ("retime.self_s", per "retime.self_s");
        ("result.self_s", per "result.self_s");
        ("baseline.self_s", per "baseline.self_s");
        ("audit.self_s", per "audit.self_s");
        ("bench.traced_pass_s", traced);
        ("bench.unaccounted_frac", 1. -. Kit.ratio self traced);
        ("bench.trace_overhead_frac", Kit.ratio traced (Kit.mean passes) -. 1.);
      ]
    end
  in
  { Kit.e2e; layers; attempted = !attempted; failed = !failed }
