(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   Workloads: table1, scale (in-process synthesis) and serve-hot,
   serve-churn (TCP serving).  With --trace 0 the result line carries
   the end-to-end metrics, with --trace 1 the per-layer ones; the last
   line of stdout is that result.  BENCHMARK.json at the repository root
   names every metric, its unit, and why each workload exists. *)

(* Every per-layer metric and its unit.  A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("place.self_s", "s"); ("place.sa_attempted", "count");
    ("place.accept_ratio", "ratio"); ("place.terms_per_move", "count");
    ("place.alloc_mw", "Mword");
    ("route.self_s", "s"); ("route.astar_searches", "count");
    ("route.astar_pops", "count"); ("route.pops_per_search", "count");
    ("route.field_builds", "count"); ("route.field_reuse", "ratio");
    ("route.conflict_rejections", "count"); ("route.alloc_mw", "Mword");
    ("schedule.self_s", "s"); ("schedule.transports", "count");
    ("retime.self_s", "s"); ("result.self_s", "s");
    ("baseline.self_s", "s"); ("audit.self_s", "s");
    ("protocol.parse_us", "us"); ("protocol.encode_us", "us");
    ("protocol.bytes_out", "B"); ("frame.us_per_line", "us");
    ("server.hit_us", "us"); ("server.compute_ms", "ms");
    ("server.warm_ms", "ms"); ("server.repair_ms", "ms");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("near.hit_ratio", "ratio"); ("warm.fallbacks", "count");
    ("warm.reuse_ratio", "ratio");
    ("net.gap_p50_ms", "ms"); ("net.gap_p99_ms", "ms");
    ("server.cpu_ms_per_req", "ms"); ("server.queue_wait_p99", "ticks");
    ("bench.p99_ms", "ms");
    ("bench.gen_lag_p99_ms", "ms"); ("bench.traced_pass_s", "s");
    ("bench.unaccounted_frac", "ratio"); ("bench.trace_overhead_frac", "ratio");
  ]

let () =
  let args = Kit.parse_args Sys.argv in
  let outcome =
    match args.workload with
    | "table1" | "scale" -> Synth.run args
    | "serve-hot" | "serve-churn" -> Serve.run args
    | w -> Kit.die "unknown workload %S (table1, scale, serve-hot, serve-churn)" w
  in
  let metrics =
    if not args.trace then outcome.e2e
    else begin
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then
            Kit.die "undeclared per-layer metric %s" name)
        outcome.layers;
      List.map
        (fun (name, unit) ->
          Kit.m name unit
            (Option.value (List.assoc_opt name outcome.layers) ~default:0.))
        per_layer
    end
  in
  Kit.print_result args ~correct:(outcome.failed = 0)
    ~attempted:outcome.attempted ~failed:outcome.failed metrics
