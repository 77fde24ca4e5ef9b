module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module Histogram = Mfb_util.Histogram
module P = Mfb_server.Protocol
module Server = Mfb_server.Server

type config = {
  size : int;
  worker_argv : int -> string array;
  dispatch : Dispatcher.config;
}

let default_config ~worker_argv ~size =
  { size; worker_argv; dispatch = Dispatcher.default_config }

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
    sup = Supervisor.create ~size:cfg.size cfg.worker_argv;
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
  Dispatcher.run_batch ~cfg:t.cfg.dispatch ~sup:t.sup ~stats:t.dstats
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

(* The fleet's stats rows under ["cluster"]: JSON-only counters the
   Goodbye totals read back, a per-slot health table, and one
   dcsa_fleet_reply_bytes series per slot, faceted by an escaped slot
   label so scrapers can aggregate across the fleet. *)
let series t =
  let d = t.dstats in
  let row key value =
    { Server.path = [ "cluster"; key ]; name = ""; labels = []; help = "";
      value }
  in
  let slot i =
    let respawns, streak, ok, last = Supervisor.slot_health t.sup i in
    Json.Obj
      [
        ("slot", Json.Int i);
        ("respawns", Json.Int respawns);
        ("consecutive_failures", Json.Int streak);
        ("ok", Json.Int ok);
        ("last_outcome", Json.String last);
        ("reply_bytes", Histogram.snapshot_json t.slot_bytes.(i));
      ]
  in
  row "fleet" (Server.Info (Json.Int t.cfg.size))
  :: List.map
       (fun (key, n) -> row key (Server.Counter n))
       [
         ("respawns", Supervisor.respawns t.sup);
         ("spawn_failures", Supervisor.spawn_failures t.sup);
         ("dispatched", d.Dispatcher.dispatched);
         ("retries", d.Dispatcher.retries);
         ("degraded", d.Dispatcher.degraded);
         ("crashes", d.Dispatcher.crashes);
         ("timeouts", d.Dispatcher.timeouts);
         ("garbage", d.Dispatcher.garbage);
         ("heartbeat_failures", d.Dispatcher.heartbeat_failures);
       ]
  @ row "slots" (Server.Info (Json.List (List.init t.cfg.size slot)))
    :: List.mapi
         (fun i h ->
           { Server.path = []; name = "dcsa_fleet_reply_bytes";
             labels = [ ("slot", string_of_int i) ];
             help = "reply line bytes from fleet slots";
             value = Server.Histogram h })
         (Array.to_list t.slot_bytes)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Supervisor.stop t.sup
  end
