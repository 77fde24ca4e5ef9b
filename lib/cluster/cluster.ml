module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module Histogram = Mfb_util.Histogram
module P = Mfb_server.Protocol
module Server = Mfb_server.Server

type config = {
  size : int;
  worker_argv : int -> string array;
  timeout : float;
  hb_timeout : float;
  max_retries : int;
  backoff_cap : int;
  heartbeat : bool;
  route : (Server.job -> int option) option;
}

let default_config ~worker_argv ~size =
  {
    size;
    worker_argv;
    timeout = Dispatcher.default_config.Dispatcher.timeout;
    hb_timeout = Dispatcher.default_config.Dispatcher.hb_timeout;
    max_retries = Dispatcher.default_config.Dispatcher.max_retries;
    backoff_cap = 8;
    heartbeat = Dispatcher.default_config.Dispatcher.heartbeat;
    route = None;
  }

type t = {
  cfg : config;
  sup : Supervisor.t;
  dstats : Dispatcher.stats;
  slot_bytes : Histogram.t array;  (* reply line bytes per slot *)
  mutable stopped : bool;
}

let create cfg =
  if cfg.size < 1 then invalid_arg "Cluster.create: size < 1";
  (* A worker dying mid-write must be a fault, not a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  {
    cfg;
    sup =
      Supervisor.create ~size:cfg.size ~backoff_cap:cfg.backoff_cap
        cfg.worker_argv;
    dstats = Dispatcher.make_stats ();
    slot_bytes = Array.init cfg.size (fun _ -> Histogram.create ());
    stopped = false;
  }

(* The wire request for a job is its original submit spec: the worker
   re-resolves and re-runs the identical deterministic computation, so
   a worker answer and an in-process answer are the same bytes.  When
   the supervisor side has a telemetry sink, the wire id doubles as
   trace context, asking the worker to ship its span tree back. *)
let job_to_line (job : Server.job) ~wire_id =
  P.request_to_line
    (P.Submit
       {
         id = wire_id;
         priority = 0;
         deadline = None;
         flow = job.Server.flow;
         spec = job.Server.spec;
         overrides = job.Server.overrides;
         trace = (if Telemetry.active () then Some wire_id else None);
       })

let payload_of_line t ~wire_id ~slot line =
  let answered payload =
    Histogram.add t.slot_bytes.(slot) (float_of_int (String.length line));
    Some payload
  in
  match P.response_of_line line with
  | Ok (P.Job_result { id; result; spans; _ }) when id = wire_id ->
    let nodes =
      match spans with
      | Some (Json.List l) ->
        List.filter_map
          (fun j -> Stdlib.Result.to_option (Telemetry.node_of_json j))
          l
      | _ -> []
    in
    answered (Ok result, nodes)
  (* the job itself failed on a healthy worker *)
  | Ok (P.Rejected { op = "submit"; id; reason }) when id = wire_id ->
    answered (Error reason, [])
  | Ok _ | Error _ -> None

let dispatch t jobs =
  let dcfg =
    {
      Dispatcher.timeout = t.cfg.timeout;
      hb_timeout = t.cfg.hb_timeout;
      max_retries = t.cfg.max_retries;
      heartbeat = t.cfg.heartbeat;
    }
  in
  Dispatcher.run_batch ?route:t.cfg.route ~cfg:dcfg ~sup:t.sup ~stats:t.dstats
    ~degrade:(fun job ->
      (Server.run_job ~trace:[ ("degraded", Telemetry.Bool true) ] job, []))
    ~to_line:job_to_line ~of_line:(payload_of_line t) jobs
  |> List.map (fun ((payload, nodes), (meta : Dispatcher.meta)) ->
         {
           Server.d_payload = payload;
           d_slot = meta.Dispatcher.m_slot;
           d_attempts = meta.Dispatcher.m_attempts;
           d_spans = nodes;
         })

let stats t = t.dstats
let respawns t = Supervisor.respawns t.sup

let slots_json t =
  Json.List
    (List.init t.cfg.size (fun i ->
         let respawns, streak, ok, last = Supervisor.slot_health t.sup i in
         Json.Obj
           [
             ("slot", Json.Int i);
             ("respawns", Json.Int respawns);
             ("consecutive_failures", Json.Int streak);
             ("ok", Json.Int ok);
             ("last_outcome", Json.String last);
             ("reply_bytes", Histogram.snapshot_json t.slot_bytes.(i));
           ]))

let stats_json t =
  let d = t.dstats in
  Json.Obj
    [
      ("fleet", Json.Int t.cfg.size);
      ("respawns", Json.Int (Supervisor.respawns t.sup));
      ("spawn_failures", Json.Int (Supervisor.spawn_failures t.sup));
      ("dispatched", Json.Int d.Dispatcher.dispatched);
      ("retries", Json.Int d.Dispatcher.retries);
      ("degraded", Json.Int d.Dispatcher.degraded);
      ("crashes", Json.Int d.Dispatcher.crashes);
      ("timeouts", Json.Int d.Dispatcher.timeouts);
      ("garbage", Json.Int d.Dispatcher.garbage);
      ("heartbeat_failures", Json.Int d.Dispatcher.heartbeat_failures);
      ("routed", Json.Int d.Dispatcher.routed);
      ("slots", slots_json t);
    ]

(* Per-slot reply-size series for the server's Prometheus exposition:
   one metric name, one escaped slot label value per fleet member, so
   scrapers can aggregate across the fleet or facet by slot. *)
let prometheus t buf =
  Array.iteri
    (fun i h ->
      Histogram.prometheus ~help:"reply line bytes from fleet slots"
        ~labels:[ ("slot", string_of_int i) ]
        ~header:(i = 0) ~name:"dcsa_fleet_reply_bytes" buf h)
    t.slot_bytes

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Supervisor.stop t.sup
  end
