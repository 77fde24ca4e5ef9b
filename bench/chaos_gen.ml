(* Chaos generator for the worker fleet.

   Replays one seeded request script against three servers — the
   in-process baseline (--fleet 0), a clean worker fleet, and the same
   fleet under a seeded fault schedule — then byte-compares every
   result payload across the three runs and reports throughput,
   p50/p95/max request latency, and the fleet's recovery counters
   (respawns, retries, degradations, per-kind fault counts).

   Both the request script and the fault plan are pure functions of
   --seed, so CI replays the identical chaos schedule from the seed
   alone.  Any payload divergence is a determinism bug and exits 1.

   Run from the repo root with:
     dune exec bench/chaos_gen.exe -- [--requests N] [--fleet N]
       [--seed S] [--rate F] [--timeout S] [--worker-bin PATH]
       [--out FILE]

   Writes the machine-readable summary to BENCH_cluster.json (or
   --out). *)

module Json = Mfb_util.Json
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Client = Mfb_server.Client
module Cluster = Mfb_cluster.Cluster
module Fault = Mfb_cluster.Fault

open Bench_kit

let requests = arg_value "--requests" 24 int_of_string_opt
let fleet = arg_value "--fleet" 2 int_of_string_opt
let seed = arg_value "--seed" 7 int_of_string_opt
let rate = arg_value "--rate" 0.35 float_of_string_opt
let timeout = arg_value "--timeout" 10.0 float_of_string_opt
let out_file = arg_value "--out" "BENCH_cluster.json" (fun s -> Some s)

let worker_bin =
  arg_value "--worker-bin"
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       "../bin/dcsa_synth.exe")
    (fun s -> Some s)

(* The request script: PCR/IVD submissions with a small seed pool, so
   batches mix cache hits with fresh synthesis.  Pure function of
   --seed; replayed verbatim against all three servers. *)
let script =
  let rng = Random.State.make [| seed |] in
  List.init requests (fun _ ->
      let bench = if Random.State.bool rng then "PCR" else "IVD" in
      (bench, Random.State.int rng 6))

(* The fault plan: a guaranteed crash on slot 0's first job (so
   respawn/retry counters are provably non-zero on any non-empty
   script) plus a seeded draw over every (slot, job) pair.  Workers
   index faults per process life, so a respawned slot replays its
   schedule from job 0. *)
let plan =
  { Fault.worker = 0; job = 0; kind = Fault.Crash }
  :: Fault.generate ~seed ~workers:fleet ~max_job:4 ~rate ()

let submit_of ~id ~bench ~job_seed =
  P.Submit
    {
      id;
      priority = 0;
      deadline = None;
      flow = `Ours;
      spec = P.Benchmark bench;
      overrides =
        { P.no_overrides with o_seed = Some job_seed };
      trace = None;
    }

(* Replay the script: submit everything (batches of [batch] dispatch as
   the queue fills), then demand every result, timing each result
   round-trip.  Returns (elapsed_s, latencies_ms, payloads, cluster
   counters if any). *)
let replay ~cluster =
  let dispatch, extra_series =
    match cluster with
    | None -> (None, None)
    | Some c ->
      (Some (Cluster.dispatch c), Some (fun () -> Cluster.series c))
  in
  let server =
    Server.create
      {
        Server.default_config with
        queue_depth = max 64 requests;
        dispatch;
        extra_series;
      }
  in
  let client = Client.in_process server in
  let latencies = Array.make requests 0.0 in
  let payloads = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i (bench, job_seed) ->
      let id = Printf.sprintf "c%d" i in
      match Client.call client (submit_of ~id ~bench ~job_seed) with
      | Ok (P.Submitted _) -> ()
      | Ok other ->
        fail "submit %s: unexpected response %s" id (P.response_to_line other)
      | Error e -> fail "submit %s: %s" id e)
    script;
  List.iteri
    (fun i _ ->
      let id = Printf.sprintf "c%d" i in
      let r0 = Unix.gettimeofday () in
      (match Client.call client (P.Result id) with
       | Ok (P.Job_result { result; _ }) ->
         payloads := Json.to_string result :: !payloads
       | Ok other ->
         fail "result %s: unexpected response %s" id (P.response_to_line other)
       | Error e -> fail "result %s: %s" id e);
      latencies.(i) <- (Unix.gettimeofday () -. r0) *. 1e3)
    script;
  let elapsed = Unix.gettimeofday () -. t0 in
  let counters = Json.member "cluster" (Server.stats_json server) in
  (elapsed, latencies, List.rev !payloads, counters)

let with_fleet ~plan f =
  let plan_file =
    if Fault.is_empty plan then None
    else begin
      let file = Filename.temp_file "chaos_plan" ".json" in
      Fault.to_file file plan;
      Some file
    end
  in
  let worker_argv slot =
    let base = [ worker_bin; "worker"; "--index"; string_of_int slot ] in
    let argv =
      match plan_file with
      | None -> base
      | Some file -> base @ [ "--fault-plan"; file ]
    in
    Array.of_list argv
  in
  let cluster =
    Cluster.create
      {
        (Cluster.default_config ~worker_argv ~size:fleet) with
        dispatch = { Mfb_cluster.Dispatcher.default_config with timeout };
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.stop cluster;
      Option.iter Sys.remove plan_file)
    (fun () -> f cluster)

let counter name json =
  match Json.member name json with Some (Json.Int i) -> i | _ -> 0

let summary name (elapsed, latencies, _payloads, counters) =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let throughput = float_of_int requests /. elapsed in
  let p50 = percentile sorted 0.50
  and p95 = percentile sorted 0.95
  and worst = sorted.(Array.length sorted - 1) in
  let recovery =
    match counters with
    | None -> []
    | Some json -> [ ("recovery", json) ]
  in
  (match counters with
   | None ->
     Printf.printf
       "%-12s %6.1f req/s   p50 %6.2f ms   p95 %6.2f ms   max %6.2f ms\n"
       name throughput p50 p95 worst
   | Some json ->
     Printf.printf
       "%-12s %6.1f req/s   p50 %6.2f ms   p95 %6.2f ms   max %6.2f ms   \
        respawns %d   retries %d   degraded %d\n"
       name throughput p50 p95 worst (counter "respawns" json)
       (counter "retries" json) (counter "degraded" json));
  Json.Obj
    ([
       ("elapsed_s", Json.Float elapsed);
       ("throughput_rps", Json.Float throughput);
       ("p50_ms", Json.Float p50);
       ("p95_ms", Json.Float p95);
       ("max_ms", Json.Float worst);
     ]
    @ recovery)

let () =
  if requests < 1 then fail "--requests must be >= 1";
  if fleet < 1 then fail "--fleet must be >= 1";
  if not (Sys.file_exists worker_bin) then
    fail "worker binary %s not found (build first, or pass --worker-bin)"
      worker_bin;
  Printf.printf
    "worker-fleet chaos generator: %d requests, fleet=%d, fault rate \
     %.0f%%, %d planned faults, seed=%d\n\n"
    requests fleet (100.0 *. rate) (List.length plan) seed;
  let baseline_run = replay ~cluster:None in
  let clean_run = with_fleet ~plan:Fault.empty (fun c -> replay ~cluster:(Some c)) in
  let chaos_run = with_fleet ~plan (fun c -> replay ~cluster:(Some c)) in
  let baseline = summary "baseline" baseline_run in
  let clean = summary "fleet-clean" clean_run in
  let chaos = summary "fleet-chaos" chaos_run in
  let (_, _, bp, _) = baseline_run
  and (_, _, cp, _) = clean_run
  and (_, _, xp, _) = chaos_run in
  if bp <> cp then
    fail "fleet transparency violated: clean-fleet payloads differ from \
          baseline";
  if bp <> xp then
    fail "fault transparency violated: chaos payloads differ from baseline";
  Printf.printf
    "\nfleet transparency: all %d payloads byte-identical across baseline \
     / clean / chaos\n"
    requests;
  (match chaos_run with
   | _, _, _, Some json ->
     let respawns = counter "respawns" json
     and retries = counter "retries" json in
     if respawns = 0 || retries = 0 then
       fail "chaos run showed no recovery (respawns=%d retries=%d): fault \
             plan did not fire"
         respawns retries
   | _ -> ());
  let doc =
    Json.Obj
      [
        ( "workload",
          Json.Obj
            [
              ("requests", Json.Int requests);
              ("fleet", Json.Int fleet);
              ("seed", Json.Int seed);
              ("fault_rate", Json.Float rate);
              ("planned_faults", Json.Int (List.length plan));
              ("fault_plan", Fault.to_json plan);
            ] );
        ("baseline", baseline);
        ("fleet_clean", clean);
        ("fleet_chaos", chaos);
        ("payloads_identical", Json.Bool (bp = cp && bp = xp));
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" out_file
