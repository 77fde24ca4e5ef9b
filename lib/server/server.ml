module Json = Mfb_util.Json
module Lru = Mfb_util.Lru
module Telemetry = Mfb_util.Telemetry
module Histogram = Mfb_util.Histogram
module P = Protocol

(* A fully resolved, validated synthesis job — everything needed to run
   it on any worker domain without touching server state.  The original
   [spec] and [overrides] ride along so a dispatch hook can re-submit
   the job verbatim to an out-of-process worker. *)
type job = {
  key : Cache_key.t;
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
  config : Mfb_core.Config.t;
  flow : [ `Ours | `Ba ];
  spec : P.spec;
  overrides : P.overrides;
}

(* One batch slot's answer for one job.  The fleet dispatcher fills in
   attribution (slot, attempts, worker-side span tree); the in-process
   path leaves it empty, which is exactly what keeps the access log
   byte-identical between the two transports. *)
type dispatch_result = {
  d_payload : (Json.t, string) Stdlib.result;
  d_slot : int option;
  d_attempts : int;
  d_spans : Telemetry.node list;
}

type config = {
  jobs : int;
  cache_capacity : int;
  queue_depth : int;
  batch : int;
  repair_cache : int;
  similarity : bool;
  sim_threshold : int;
  warm_delta : float;
  flow_config : Mfb_core.Config.t;
  dispatch : (job list -> dispatch_result list) option;
  extra_stats : (unit -> (string * Json.t) list) option;
  extra_prometheus : (Buffer.t -> unit) option;
  clock : [ `Virtual | `Wall ];
  access_log : out_channel option;
  slow_threshold : float option;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 128;
    queue_depth = 64;
    batch = 8;
    repair_cache = 8;
    similarity = false;
    sim_threshold = 8;
    warm_delta = 0.25;
    flow_config = Mfb_core.Config.default;
    dispatch = None;
    extra_stats = None;
    extra_prometheus = None;
    clock = `Virtual;
    access_log = None;
    slow_threshold = None;
  }

type outcome = Done of { key : Cache_key.t; payload : Json.t } | Shed of string

(* Request-scoped bookkeeping, keyed by client id from admission to the
   final outcome.  [rid] is the deterministic request id (a pure
   function of submission order), so every observability artifact that
   mentions it is identical across [--jobs] values and transports. *)
type req_info = {
  rid : string;
  submit_tick : int;
  submit_wall : float;
}

type t = {
  cfg : config;
  cache : (Cache_key.t, Json.t) Lru.t option;
  (* Full [Mfb_core.Result.t]s retained from in-process batch runs so a
     later repair request can warm-start instead of re-synthesizing.
     Small and separate from the summary cache: a full result holds the
     routed grid and schedule, not just scalar metrics. *)
  full : (Cache_key.t, Mfb_core.Result.t) Lru.t option;
  (* Similarity index over previously computed jobs.  Entries hold the
     resolved *job*, never its result: on a near-hit the candidate's
     full result is looked up in [full] and, when evicted, re-derived
     cold — deterministically byte-identical to the original run — so
     warm-start decisions and payloads are a pure function of the
     request script whatever the cache temperature or dispatch mode. *)
  sim : job Sim_index.t option;
  specs : (string, job) Hashtbl.t;  (* accepted id -> resolved job *)
  queue : job Job_queue.t;
  outcomes : (string, outcome) Hashtbl.t;
  ids : (string, unit) Hashtbl.t;  (* every accepted id, for dedupe *)
  req_info : (string, req_info) Hashtbl.t;
  h_latency : Histogram.t;    (* total request latency, clock units *)
  h_queue_wait : Histogram.t; (* queue wait in virtual ticks *)
  h_repair : Histogram.t;     (* repair latency, clock units *)
  h_warm : Histogram.t;       (* warm-start latency, clock units *)
  mutable next_rid : int;
  mutable tick : int;
  mutable submitted : int;
  mutable computed : int;
  mutable near_hits : int;
  mutable warm_fallbacks : int;
  mutable repairs : int;
  mutable repairs_warm : int;
  mutable shed_deadline : int;
  mutable shed_displaced : int;
  mutable rejected : int;
  mutable stopping : bool;
}

let create cfg =
  if cfg.jobs < 1 then invalid_arg "Server.create: jobs < 1";
  if cfg.batch < 1 then invalid_arg "Server.create: batch < 1";
  if cfg.cache_capacity < 0 then
    invalid_arg "Server.create: cache_capacity < 0";
  if cfg.repair_cache < 0 then invalid_arg "Server.create: repair_cache < 0";
  if cfg.sim_threshold < 0 then invalid_arg "Server.create: sim_threshold < 0";
  if cfg.warm_delta < 0. then invalid_arg "Server.create: warm_delta < 0";
  {
    cfg;
    cache =
      (if cfg.cache_capacity = 0 then None
       else Some (Lru.create ~name:"results" ~capacity:cfg.cache_capacity ()));
    full =
      (if cfg.repair_cache = 0 then None
       else
         Some (Lru.create ~name:"full-results" ~capacity:cfg.repair_cache ()));
    sim =
      (if not cfg.similarity then None
       else
         Some
           (Sim_index.create
              ~capacity:(max 16 cfg.cache_capacity)
              ~threshold:cfg.sim_threshold ()));
    specs = Hashtbl.create 64;
    queue = Job_queue.create ~depth:cfg.queue_depth ();
    outcomes = Hashtbl.create 64;
    ids = Hashtbl.create 64;
    req_info = Hashtbl.create 64;
    h_latency = Histogram.create ();
    h_queue_wait = Histogram.create ();
    h_repair = Histogram.create ();
    h_warm = Histogram.create ();
    next_rid = 0;
    tick = 0;
    submitted = 0;
    computed = 0;
    near_hits = 0;
    warm_fallbacks = 0;
    repairs = 0;
    repairs_warm = 0;
    shed_deadline = 0;
    shed_displaced = 0;
    rejected = 0;
    stopping = false;
  }

let current_tick t = t.tick

let shutting_down t = t.stopping

(* --- request resolution --- *)

let ( let* ) = Stdlib.Result.bind

let resolve_spec = function
  | P.Benchmark name ->
    (match Mfb_core.Suite.find name with
     | Some (inst : Mfb_core.Suite.instance) -> Ok (inst.graph, inst.allocation)
     | None ->
       Error
         (Printf.sprintf "unknown benchmark %S; try: %s" name
            (String.concat ", " Mfb_core.Suite.names)))
  | P.Assay { text; alloc } ->
    (match Mfb_bioassay.Assay_file.parse text with
     | Error e ->
       Error (Format.asprintf "assay: %a" Mfb_bioassay.Assay_file.pp_error e)
     | Ok graph ->
       let* allocation =
         match alloc with
         | None -> Ok (Mfb_component.Allocation.minimal_for graph)
         | Some v ->
           (match Mfb_component.Allocation.of_vector v with
            | a -> Ok a
            | exception Invalid_argument msg -> Error msg)
       in
       Ok (graph, allocation))

(* Each annealing restart is a full placement run on the server, so a
   client override may ask for at most this many. *)
let max_sa_restarts = 64

let apply_overrides (cfg : Mfb_core.Config.t) (o : P.overrides) =
  let cfg =
    match o.o_seed with None -> cfg | Some seed -> { cfg with seed }
  in
  let cfg = match o.o_tc with None -> cfg | Some tc -> { cfg with tc } in
  let* cfg =
    match o.o_sa_restarts with
    | None -> Ok cfg
    | Some r when r > max_sa_restarts ->
      Error
        (Printf.sprintf "sa_restarts %d exceeds the limit of %d" r
           max_sa_restarts)
    | Some sa_restarts -> Ok { cfg with sa_restarts }
  in
  let cfg =
    match o.o_backend with
    | None -> cfg
    | Some backend -> { cfg with backend }
  in
  match Mfb_core.Config.validate cfg with
  | () -> Ok cfg
  | exception Invalid_argument msg -> Error msg

let resolve ~base ~flow ~overrides spec =
  let* graph, allocation = resolve_spec spec in
  let* () =
    if Mfb_component.Allocation.covers allocation graph then Ok ()
    else
      Error
        (Printf.sprintf "allocation %s does not cover every operation kind"
           (Mfb_component.Allocation.to_string allocation))
  in
  let* config = apply_overrides base overrides in
  let* () =
    if flow = `Ba && config.backend <> Mfb_schedule.Portfolio.Heuristic then
      Error
        "backend exact/portfolio replaces the DCSA scheduler; it cannot run \
         with flow ba"
    else Ok ()
  in
  let flow_name = Mfb_core.Flow.name (flow :> Mfb_core.Flow.variant) in
  let key = Cache_key.make ~flow:flow_name ~config ~graph ~allocation () in
  Ok { key; graph; allocation; config; flow; spec; overrides }

let resolve_job t ~flow ~overrides spec =
  resolve ~base:t.cfg.flow_config ~flow ~overrides spec

(* --- batch execution --- *)

let synthesize job =
  Mfb_core.Flow.run ~config:job.config
    ~variant:(job.flow :> Mfb_core.Flow.variant)
    ~jobs:1 job.graph job.allocation

let summary_payload full = Mfb_core.Result.(summary_to_json (summarize full))

(* A job whose synthesis raises fails alone: the exception text is the
   reason its request is shed with. *)
let attempt ?trace job =
  match
    match trace with
    | None -> synthesize job
    | Some args ->
      Telemetry.span ~cat:"serve" ~args "request" (fun () -> synthesize job)
  with
  | full -> Ok full
  | exception e -> Error ("synthesis failed: " ^ Printexc.to_string e)

let run_job ?trace job = Stdlib.Result.map summary_payload (attempt ?trace job)

(* Find-or-resynthesize a job's retained full result (warm-start seed
   for repairs and near-hits).  The cold branch re-runs with the same
   config and [jobs = 1], so it is byte-identical to the original batch
   run — cache temperature can only change latency, never bytes. *)
let full_result_of t (job : job) =
  match t.full with
  | None -> (synthesize job, false)
  | Some c ->
    (match Lru.find c job.key with
     | Some r -> (r, true)
     | None ->
       let r = synthesize job in
       Lru.add c job.key r;
       (r, false))

(* --- request observability ---

   Every submission is assigned a deterministic request id and ends in
   exactly one of the outcomes {hit, done, shed, rejected}.  At that
   point the server builds one span-tree [node] for the request — queue
   wait and compute phases as children, worker-side spans (when a fleet
   shipped them back) grafted under the compute phase — and feeds it to
   all three consumers: the telemetry sink (one subtrack per request),
   the access log (one JSONL record, plus the span tree for slow
   requests), and the latency/queue-wait histograms. *)

let next_rid t =
  t.next_rid <- t.next_rid + 1;
  Printf.sprintf "r%06d" t.next_rid

let key_prefix key =
  let hex = Cache_key.to_hex key in
  if String.length hex > 8 then String.sub hex 0 8 else hex

let backend_name (job : job) =
  Mfb_schedule.Portfolio.backend_to_string job.config.backend

let latency_units t (info : req_info) ~total_ticks =
  match t.cfg.clock with
  | `Virtual -> float_of_int total_ticks
  | `Wall -> (Unix.gettimeofday () -. info.submit_wall) *. 1000.0

let request_node ~rid ~id ~key ~backend ~outcome ?reason ?batch ?fleet
    ~queue_ticks ~compute_ticks ~worker_spans () =
  let open Telemetry in
  let args =
    [ ("rid", Str rid); ("id", Str id); ("key", Str key);
      ("backend", Str backend); ("outcome", Str outcome) ]
    @ (match reason with None -> [] | Some r -> [ ("reason", Str r) ])
    @ (match batch with None -> [] | Some b -> [ ("batch", Int b) ])
    @ (match fleet with
       | None -> []
       | Some (slot, retries) ->
         [ ("slot", Int slot); ("retries", Int retries) ])
  in
  let children =
    (if queue_ticks > 0 || compute_ticks > 0 then
       [ { n_name = "queue.wait"; n_cat = "serve"; n_args = [];
           n_dur_us = float_of_int queue_ticks; n_children = [] } ]
     else [])
    @ (if compute_ticks > 0 then
         [ { n_name = "compute"; n_cat = "serve"; n_args = [];
             n_dur_us = float_of_int compute_ticks;
             n_children = worker_spans } ]
       else [])
  in
  {
    n_name = "request";
    n_cat = "serve";
    n_args = args;
    n_dur_us = float_of_int (queue_ticks + compute_ticks);
    n_children = children;
  }

(* One JSONL record with a fixed field order, so [cmp] can prove the log
   is a pure function of the request script.  Fleet attribution rides in
   a trailing optional subobject that identity checks strip. *)
let access_fields ~rid ~id ~key ~backend ~outcome ?reason ?batch ?fleet
    ?spans ~queue_ticks ~compute_ticks () =
  [ ("rid", Json.String rid); ("id", Json.String id);
    ("key", Json.String key); ("backend", Json.String backend);
    ("outcome", Json.String outcome) ]
  @ (match reason with None -> [] | Some r -> [ ("reason", Json.String r) ])
  @ [ ("queue_ticks", Json.Int queue_ticks);
      ("compute_ticks", Json.Int compute_ticks);
      ("total_ticks", Json.Int (queue_ticks + compute_ticks)) ]
  @ (match batch with None -> [] | Some b -> [ ("batch", Json.Int b) ])
  @ (match fleet with
     | None -> []
     | Some (slot, retries) ->
       [ ( "fleet",
           Json.Obj [ ("slot", Json.Int slot); ("retries", Json.Int retries) ]
         ) ])
  @ (match spans with None -> [] | Some s -> [ ("spans", s) ])

let finish_request t ~rid ~id ~key ~backend ~outcome ?reason ?batch ?fleet
    ~queue_ticks ~compute_ticks ~worker_spans ~latency () =
  let node =
    request_node ~rid ~id ~key ~backend ~outcome ?reason ?batch ?fleet
      ~queue_ticks ~compute_ticks ~worker_spans ()
  in
  if Telemetry.active () then
    Telemetry.on_subtrack (Telemetry.subtrack rid) (fun () ->
        Telemetry.emit_node node);
  (match latency with
   | None -> ()
   | Some l -> Histogram.add t.h_latency l);
  (match t.cfg.access_log with
   | None -> ()
   | Some oc ->
     let slow =
       match (t.cfg.slow_threshold, latency) with
       | Some thr, Some l -> l >= thr
       | _ -> false
     in
     let spans =
       if slow then Some (Json.List [ Telemetry.node_to_json node ])
       else None
     in
     let fields =
       access_fields ~rid ~id ~key ~backend ~outcome ?reason ?batch ?fleet
         ?spans ~queue_ticks ~compute_ticks ()
     in
     output_string oc (Json.to_string (Json.Obj fields));
     output_char oc '\n';
     flush oc);
  Hashtbl.remove t.req_info id

let req_info_of t id =
  match Hashtbl.find_opt t.req_info id with
  | Some info -> info
  | None -> { rid = "-"; submit_tick = t.tick; submit_wall = 0.0 }

(* One virtual tick: shed expired jobs, then run up to [batch] jobs in
   dispatch order — identical keys computed once, results recorded and
   cached in dispatch order so every counter and payload is a pure
   function of the request sequence. *)
let process_batch t =
  t.tick <- t.tick + 1;
  Telemetry.incr ~cat:"serve" "batches";
  let batch_tick = t.tick in
  let queue_wait (it : job Job_queue.item) =
    max 0 (batch_tick - it.submitted - 1)
  in
  let dispatched, dead =
    Job_queue.pop_batch t.queue ~now:t.tick ~max:t.cfg.batch
  in
  List.iter
    (fun (it : job Job_queue.item) ->
      t.shed_deadline <- t.shed_deadline + 1;
      Telemetry.incr ~cat:"serve" "shed.deadline";
      Hashtbl.replace t.outcomes it.id
        (Shed
           (Printf.sprintf
              "deadline exceeded: submitted at tick %d with deadline %d, \
               dispatch attempted at tick %d"
              it.submitted
              (Option.value it.deadline ~default:0)
              t.tick));
      let info = req_info_of t it.id in
      let qw = queue_wait it in
      Histogram.add t.h_queue_wait (float_of_int qw);
      finish_request t ~rid:info.rid ~id:it.id
        ~key:(key_prefix it.payload.key) ~backend:(backend_name it.payload)
        ~outcome:"shed" ~reason:"deadline" ~batch:batch_tick ~queue_ticks:qw
        ~compute_ticks:0 ~worker_spans:[] ~latency:None ())
    dead;
  (* Keys neither cached nor already seen in this batch run once. *)
  let seen = Hashtbl.create 8 in
  let unique =
    List.filter
      (fun (it : job Job_queue.item) ->
        let key = it.payload.key in
        let cached =
          match t.cache with Some c -> Lru.mem c key | None -> false
        in
        if cached || Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      dispatched
  in
  (* Similarity pass: look for a near-matching cached solution for each
     unique job and try to warm-start from it.  Candidate full results
     resolve on the server thread — [full_result_of] touches the LRUs
     and re-synthesizes cold on eviction, keeping the seed a pure
     function of the request script — then the warm syntheses fan out
     on the pool.  A failed warm attempt (quality gate, unroutable
     task, component mismatch) rejoins the cold set in dispatch order
     and is counted as a fallback. *)
  let fp_of (job : job) =
    Sim_index.fingerprint
      ~flow:(Mfb_core.Flow.name (job.flow :> Mfb_core.Flow.variant))
      ~config:job.config ~graph:job.graph ~allocation:job.allocation ()
  in
  (* key -> (dispatch result, full result) for warm-started jobs *)
  let warm_tbl = Hashtbl.create 8 in
  let fps = Hashtbl.create 8 in
  (match t.sim with
   | None -> ()
   | Some sim ->
     let wall0 = Unix.gettimeofday () in
     let planned =
       List.filter_map
         (fun (it : job Job_queue.item) ->
           let job = it.payload in
           if job.flow <> `Ours then None
           else begin
             let fp = fp_of job in
             Hashtbl.replace fps job.key fp;
             match Sim_index.nearest sim job.key fp with
             | None -> None
             | Some (_ckey, cjob, _diff) ->
               let cached, cand_warm = full_result_of t cjob in
               Some (it, cached, cand_warm)
           end)
         unique
     in
     let attempts =
       Mfb_util.Pool.map ~label:"serve-warm" ~jobs:t.cfg.jobs
         (fun ((it : job Job_queue.item), cached, cand_warm) ->
           ( it,
             cand_warm,
             match
               Mfb_repair.Warm.synthesize ~config:it.payload.config ~cached
                 ~delta:t.cfg.warm_delta it.payload.graph it.payload.allocation
             with
             | outcome -> outcome
             | exception e -> Error (Printexc.to_string e) ))
         planned
     in
     List.iter
       (fun ((it : job Job_queue.item), cand_warm, outcome) ->
         match outcome with
         | Error _ ->
           t.warm_fallbacks <- t.warm_fallbacks + 1;
           Telemetry.incr ~cat:"serve" "warm.fallbacks"
         | Ok (full, _report) ->
           t.near_hits <- t.near_hits + 1;
           Telemetry.incr ~cat:"serve" "near.hits";
           (* like repairs: a warm start whose seed sat in the full LRU
              costs 1 virtual tick, one whose seed had to be cold
              re-synthesized costs 2 — the histogram is a deterministic
              record of cache temperature *)
           let latency =
             match t.cfg.clock with
             | `Virtual -> if cand_warm then 1.0 else 2.0
             | `Wall -> (Unix.gettimeofday () -. wall0) *. 1000.0
           in
           Histogram.add t.h_warm latency;
           Hashtbl.replace warm_tbl it.payload.key
             ( {
                 d_payload = Ok (summary_payload full);
                 d_slot = None;
                 d_attempts = 1;
                 d_spans = [];
               },
               full ))
       attempts);
  let cold =
    List.filter
      (fun (it : job Job_queue.item) ->
        not (Hashtbl.mem warm_tbl it.payload.key))
      unique
  in
  let cold_results =
    match t.cfg.dispatch with
    | Some dispatch ->
      List.map
        (fun r -> (r, None))
        (dispatch
           (List.map (fun (it : job Job_queue.item) -> it.payload) cold))
    | None ->
      (* Trace args are resolved on the server thread before fan-out so
         pool tasks never touch server state.  The full result rides
         back alongside the summary payload so it can be retained for
         warm-start repairs. *)
      let traced =
        List.map
          (fun (it : job Job_queue.item) ->
            let info = req_info_of t it.id in
            ( it,
              [ ("rid", Telemetry.Str info.rid);
                ("key", Telemetry.Str (key_prefix it.payload.key)) ] ))
          cold
      in
      Mfb_util.Pool.map ~label:"serve-job" ~jobs:t.cfg.jobs
        (fun ((it : job Job_queue.item), trace) ->
          let full = attempt ~trace it.payload in
          ( {
              d_payload = Stdlib.Result.map summary_payload full;
              d_slot = None;
              d_attempts = 1;
              d_spans = [];
            },
            Stdlib.Result.to_option full ))
        traced
  in
  let results =
    let cold_tbl = Hashtbl.create 8 in
    List.iter2
      (fun (it : job Job_queue.item) r ->
        Hashtbl.replace cold_tbl it.payload.key r)
      cold cold_results;
    List.map
      (fun (it : job Job_queue.item) ->
        match Hashtbl.find_opt warm_tbl it.payload.key with
        | Some (res, full) -> (res, Some full)
        | None -> Hashtbl.find cold_tbl it.payload.key)
      unique
  in
  t.computed <- t.computed + List.length unique;
  let fresh = Hashtbl.create 8 in
  (* key -> (fleet attribution, worker spans, computing id) for the jobs
     this batch actually ran; batch duplicates share the attribution but
     the span tree is grafted only under the computing request. *)
  let meta = Hashtbl.create 8 in
  List.iter2
    (fun (it : job Job_queue.item) (res, full) ->
      Hashtbl.replace fresh it.payload.key res.d_payload;
      Hashtbl.replace meta it.payload.key
        (res.d_slot, res.d_attempts, res.d_spans, it.id);
      match res.d_payload with
      | Error reason -> Hashtbl.replace t.outcomes it.id (Shed reason)
      | Ok payload ->
        (match t.cache with
         | Some c -> Lru.add c it.payload.key payload
         | None -> ());
        (match (t.full, full) with
         | Some c, Some r -> Lru.add c it.payload.key r
         | _ -> ());
        Hashtbl.replace t.outcomes it.id
          (Done { key = it.payload.key; payload }))
    unique results;
  (* Every job computed without failure (cold, warm or fleet-dispatched)
     becomes a future warm-start candidate.  Entries carry the resolved
     job, not the result — identical index contents on every
     transport. *)
  (match t.sim with
   | None -> ()
   | Some sim ->
     List.iter
       (fun (it : job Job_queue.item) ->
         let job = it.payload in
         if job.flow = `Ours && Stdlib.Result.is_ok (Hashtbl.find fresh job.key)
         then
           let fp =
             match Hashtbl.find_opt fps job.key with
             | Some fp -> fp
             | None -> fp_of job
           in
           Sim_index.add sim job.key fp job)
       unique);
  (* Batch duplicates and jobs answered by an earlier batch's cache
     entry: the [Lru.find] counts the reuse as a hit. *)
  List.iter
    (fun (it : job Job_queue.item) ->
      if not (Hashtbl.mem t.outcomes it.id) then begin
        let key = it.payload.key in
        let cached =
          match t.cache with Some c -> Lru.find c key | None -> None
        in
        Hashtbl.replace t.outcomes it.id
          (match cached with
           | Some payload -> Done { key; payload }
           | None ->
             (match Hashtbl.find fresh key with
              | Ok payload -> Done { key; payload }
              | Error reason -> Shed reason))
      end)
    dispatched;
  (* Observability pass, in dispatch order. *)
  List.iter
    (fun (it : job Job_queue.item) ->
      let info = req_info_of t it.id in
      let qw = queue_wait it in
      let fleet, worker_spans =
        match Hashtbl.find_opt meta it.payload.key with
        | Some (Some slot, attempts, spans, owner) ->
          ( Some (slot, max 0 (attempts - 1)),
            if owner = it.id then spans else [] )
        | Some (None, _, spans, owner) ->
          (None, if owner = it.id then spans else [])
        | None -> (None, [])
      in
      Histogram.add t.h_queue_wait (float_of_int qw);
      let total_ticks = qw + 1 in
      let outcome, reason, latency =
        match Hashtbl.find_opt t.outcomes it.id with
        | Some (Shed reason) -> ("shed", Some reason, None)
        | _ ->
          ( (if Hashtbl.mem warm_tbl it.payload.key then "near-hit"
             else "done"),
            None,
            Some (latency_units t info ~total_ticks) )
      in
      finish_request t ~rid:info.rid ~id:it.id
        ~key:(key_prefix it.payload.key) ~backend:(backend_name it.payload)
        ~outcome ?reason ~batch:batch_tick ?fleet ~queue_ticks:qw
        ~compute_ticks:1 ~worker_spans ~latency ())
    dispatched

let drain_until t id =
  while
    (not (Hashtbl.mem t.outcomes id)) && Job_queue.length t.queue > 0
  do
    process_batch t
  done

(* --- stats --- *)

let stats_json t =
  let cache_json =
    match t.cache with
    | None -> Json.Null
    | Some c ->
      let s = Lru.stats c in
      Json.Obj
        [
          ("capacity", Json.Int (Lru.capacity c));
          ("entries", Json.Int (Lru.length c));
          ("hits", Json.Int s.hits);
          ("misses", Json.Int s.misses);
          ("evictions", Json.Int s.evictions);
        ]
  in
  let fields =
    [
      ("tick", Json.Int t.tick);
      ("submitted", Json.Int t.submitted);
      ("computed", Json.Int t.computed);
      ("cache", cache_json);
      ( "queue",
        Json.Obj
          [
            ("depth", Json.Int (Job_queue.depth t.queue));
            ("queued", Json.Int (Job_queue.length t.queue));
          ] );
      ( "shed",
        Json.Obj
          [
            ("deadline", Json.Int t.shed_deadline);
            ("displaced", Json.Int t.shed_displaced);
          ] );
      ("rejected", Json.Int t.rejected);
      ("latency", Histogram.snapshot_json t.h_latency);
      ("queue_wait", Histogram.snapshot_json t.h_queue_wait);
    ]
    (* present only once a near-hit or fallback happened, so the stats
       payload stays byte-identical for similarity-free scripts *)
    @ (if t.near_hits + t.warm_fallbacks = 0 then []
       else
         [ ( "near",
             Json.Obj
               [
                 ("hits", Json.Int t.near_hits);
                 ("fallbacks", Json.Int t.warm_fallbacks);
                 ("latency", Histogram.snapshot_json t.h_warm);
               ] ) ])
    (* present only once a repair has run, so the stats payload stays
       byte-identical to older servers for scripts that never repair *)
    @ (if t.repairs = 0 then []
       else
         [ ( "repair",
             Json.Obj
               [
                 ("total", Json.Int t.repairs);
                 ("warm", Json.Int t.repairs_warm);
                 ("latency", Histogram.snapshot_json t.h_repair);
               ] ) ])
    @ [
        ("jobs", Json.Int t.cfg.jobs);
        ("config", Mfb_core.Config.to_json t.cfg.flow_config);
      ]
    @ (match t.cfg.extra_stats with None -> [] | Some f -> f ())
  in
  Json.Obj fields

let latency_histogram t = t.h_latency

let queue_wait_histogram t = t.h_queue_wait

let repair_latency_histogram t = t.h_repair

let warm_latency_histogram t = t.h_warm

let near_hit_counts t = (t.near_hits, t.warm_fallbacks)

(* Prometheus text exposition: server counters, cache counters, and the
   two rolling histograms; a fleet appends its per-slot series via
   [extra_prometheus].  Deterministic under the virtual clock. *)
let prometheus_stats t =
  let buf = Buffer.create 1024 in
  let counter name help v =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n# TYPE %s counter\n%s %d\n" name help
         name name v)
  in
  let gauge name help v =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %d\n" name help name
         name v)
  in
  counter "dcsa_submitted_total" "accepted submissions" t.submitted;
  counter "dcsa_computed_total" "jobs synthesised (after dedup)" t.computed;
  Buffer.add_string buf
    (Printf.sprintf
       "# HELP dcsa_shed_total jobs shed before completion\n\
        # TYPE dcsa_shed_total counter\n\
        dcsa_shed_total{reason=\"deadline\"} %d\n\
        dcsa_shed_total{reason=\"displaced\"} %d\n"
       t.shed_deadline t.shed_displaced);
  counter "dcsa_rejected_total" "refused submissions" t.rejected;
  (match t.cache with
   | None -> ()
   | Some c ->
     let s = Lru.stats c in
     counter "dcsa_cache_hits_total" "result cache hits" s.hits;
     counter "dcsa_cache_misses_total" "result cache misses" s.misses;
     counter "dcsa_cache_evictions_total" "result cache evictions" s.evictions;
     gauge "dcsa_cache_entries" "live result cache entries" (Lru.length c));
  gauge "dcsa_tick" "virtual batch clock" t.tick;
  gauge "dcsa_queue_length" "jobs waiting in the queue"
    (Job_queue.length t.queue);
  Histogram.prometheus ~help:"request latency (ticks, or ms in wall mode)"
    ~name:"dcsa_request_latency" buf t.h_latency;
  Histogram.prometheus ~help:"queue wait (virtual ticks)"
    ~name:"dcsa_queue_wait_ticks" buf t.h_queue_wait;
  (* similarity series appear only once a near-hit or fallback happened,
     keeping the exposition byte-identical for similarity-free scripts *)
  if t.near_hits + t.warm_fallbacks > 0 then begin
    counter "dcsa_near_hits_total"
      "submissions answered by a warm start from a similar cached solution"
      t.near_hits;
    counter "dcsa_warm_fallbacks_total"
      "warm-start attempts that fell back to cold synthesis"
      t.warm_fallbacks;
    Histogram.prometheus
      ~help:"warm-start latency (ticks, or ms in wall mode)"
      ~name:"dcsa_warm_latency" buf t.h_warm
  end;
  (* like the stats payload: repair series appear only once a repair has
     run, keeping the exposition byte-identical for repair-free scripts *)
  if t.repairs > 0 then begin
    counter "dcsa_repairs_total" "repair requests answered" t.repairs;
    counter "dcsa_repairs_warm_total"
      "repairs warm-started from a retained full result" t.repairs_warm;
    Histogram.prometheus ~help:"repair latency (ticks, or ms in wall mode)"
      ~name:"dcsa_repair_latency" buf t.h_repair
  end;
  (match t.cfg.extra_prometheus with None -> () | Some f -> f buf);
  (* scrapers require the body to end in a newline; guard against an
     extra_prometheus hook that forgot its terminator *)
  if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n'
  then Buffer.add_char buf '\n';
  Buffer.contents buf

(* Shutdown audit record: authoritative counter totals, independent of
   whether a telemetry sink was installed. *)
let totals_json t =
  let cache =
    match t.cache with
    | None ->
      Json.Obj
        [ ("hits", Json.Int 0); ("misses", Json.Int 0);
          ("evictions", Json.Int 0) ]
    | Some c ->
      let s = Lru.stats c in
      Json.Obj
        [ ("hits", Json.Int s.hits); ("misses", Json.Int s.misses);
          ("evictions", Json.Int s.evictions) ]
  in
  let queue =
    Json.Obj
      [
        ("submitted", Json.Int t.submitted);
        ("computed", Json.Int t.computed);
        ("shed", Json.Int (t.shed_deadline + t.shed_displaced));
        ("rejected", Json.Int t.rejected);
      ]
  in
  let cluster =
    let extra = match t.cfg.extra_stats with None -> [] | Some f -> f () in
    let fields =
      match List.assoc_opt "cluster" extra with
      | Some (Json.Obj fs) -> fs
      | _ -> []
    in
    let geti k =
      match List.assoc_opt k fields with Some (Json.Int i) -> i | _ -> 0
    in
    Json.Obj
      [
        ("dispatched", Json.Int (geti "dispatched"));
        ("retries", Json.Int (geti "retries"));
        ("degraded", Json.Int (geti "degraded"));
        ("respawns", Json.Int (geti "respawns"));
      ]
  in
  Json.Obj [ ("cache", cache); ("queue", queue); ("cluster", cluster) ]

let goodbye_json t =
  match stats_json t with
  | Json.Obj fields -> Json.Obj (fields @ [ ("totals", totals_json t) ])
  | other -> other

(* --- request handling --- *)

let handle_submit t ~id ~priority ~deadline ~flow ~spec ~overrides =
  let rid = next_rid t in
  let finish_rejected ~key ~backend ~reason =
    finish_request t ~rid ~id ~key ~backend ~outcome:"rejected" ~reason
      ~queue_ticks:0 ~compute_ticks:0 ~worker_spans:[] ~latency:None ()
  in
  if Hashtbl.mem t.ids id then begin
    finish_rejected ~key:"-" ~backend:"-" ~reason:"duplicate id";
    P.Rejected { op = "submit"; id; reason = "duplicate id" }
  end
  else
    match resolve_job t ~flow ~overrides spec with
    | Error reason ->
      t.rejected <- t.rejected + 1;
      finish_rejected ~key:"-" ~backend:"-" ~reason:"invalid spec";
      P.Rejected { op = "submit"; id; reason }
    | Ok job ->
      let hit =
        match t.cache with Some c -> Lru.find c job.key | None -> None
      in
      (match hit with
       | Some payload ->
         Hashtbl.replace t.ids id ();
         Hashtbl.replace t.specs id job;
         t.submitted <- t.submitted + 1;
         Hashtbl.replace t.outcomes id (Done { key = job.key; payload });
         let info =
           { rid; submit_tick = t.tick; submit_wall = Unix.gettimeofday () }
         in
         Hashtbl.replace t.req_info id info;
         finish_request t ~rid ~id ~key:(key_prefix job.key)
           ~backend:(backend_name job) ~outcome:"hit" ~queue_ticks:0
           ~compute_ticks:0 ~worker_spans:[]
           ~latency:(Some (latency_units t info ~total_ticks:0))
           ();
         P.Submitted { id; key = Cache_key.to_hex job.key }
       | None ->
         (match
            Job_queue.submit t.queue ~now:t.tick ~id ~priority ?deadline job
          with
          | Job_queue.Refused reason ->
            t.rejected <- t.rejected + 1;
            Telemetry.incr ~cat:"serve" "rejected";
            finish_rejected ~key:(key_prefix job.key)
              ~backend:(backend_name job) ~reason:"queue full";
            P.Rejected { op = "submit"; id; reason }
          | admission ->
            (match admission with
             | Job_queue.Displaced shed ->
               t.shed_displaced <- t.shed_displaced + 1;
               Telemetry.incr ~cat:"serve" "shed.displaced";
               Hashtbl.replace t.outcomes shed.id
                 (Shed
                    (Printf.sprintf
                       "displaced by higher-priority submission %S" id));
               let sinfo = req_info_of t shed.id in
               finish_request t ~rid:sinfo.rid ~id:shed.id
                 ~key:(key_prefix shed.payload.key)
                 ~backend:(backend_name shed.payload) ~outcome:"shed"
                 ~reason:"displaced"
                 ~queue_ticks:(max 0 (t.tick - sinfo.submit_tick))
                 ~compute_ticks:0 ~worker_spans:[] ~latency:None ()
             | _ -> ());
            Hashtbl.replace t.ids id ();
            Hashtbl.replace t.specs id job;
            t.submitted <- t.submitted + 1;
            Hashtbl.replace t.req_info id
              {
                rid;
                submit_tick = t.tick;
                submit_wall = Unix.gettimeofday ();
              };
            Telemetry.gauge ~cat:"serve" "queue.depth"
              (float_of_int (Job_queue.length t.queue));
            while Job_queue.length t.queue >= t.cfg.batch do
              process_batch t
            done;
            P.Submitted { id; key = Cache_key.to_hex job.key }))

(* --- defect repair ---

   A repair request names a previously accepted submission and a defect
   set, and answers with the {!Mfb_repair.Plan} report.  Warm path: the
   target's full result is still retained from its in-process batch run
   — the repair warm-starts from it in one virtual tick.  Cold path: the
   full result must first be re-synthesized (same config, [jobs = 1], so
   byte-identical to the original run) — two ticks.  The report is a
   pure function of (job, defects) either way; cache temperature can
   only change latency, never bytes, exactly like the summary cache. *)

let handle_repair t ~id ~target ~defects =
  let rid = next_rid t in
  let wall0 = Unix.gettimeofday () in
  let log ~key ~backend ~outcome ?reason ~compute_ticks () =
    match t.cfg.access_log with
    | None -> ()
    | Some oc ->
      let fields =
        access_fields ~rid ~id ~key ~backend ~outcome ?reason ~queue_ticks:0
          ~compute_ticks ()
      in
      output_string oc (Json.to_string (Json.Obj fields));
      output_char oc '\n';
      flush oc
  in
  let rejected ~key ~backend ~why reason =
    log ~key ~backend ~outcome:"rejected" ~reason:why ~compute_ticks:0 ();
    P.Rejected { op = "repair"; id; reason }
  in
  if Hashtbl.mem t.ids id then
    rejected ~key:"-" ~backend:"-" ~why:"duplicate id" "duplicate id"
  else begin
    (* a still-queued target is forced to an outcome first, exactly as a
       [result] request would *)
    if
      (not (Hashtbl.mem t.outcomes target))
      && Job_queue.position t.queue target <> None
    then drain_until t target;
    match Hashtbl.find_opt t.specs target with
    | None ->
      log ~key:"-" ~backend:"-" ~outcome:"rejected" ~reason:"unknown target"
        ~compute_ticks:0 ();
      P.Bad_request
        { id = Some id;
          message = Printf.sprintf "unknown target id %S" target }
    | Some job ->
      let key = key_prefix job.key in
      let backend = backend_name job in
      (match Hashtbl.find_opt t.outcomes target with
       | Some (Shed reason) ->
         rejected ~key ~backend ~why:"target shed" ("target was shed: " ^ reason)
       | None ->
         rejected ~key ~backend ~why:"target pending" "target has no result yet"
       | Some (Done _) ->
         Hashtbl.replace t.ids id ();
         let full, warm = full_result_of t job in
         let plan =
           List.map
             (fun tg -> { Mfb_repair.Defect.tick = 0; target = tg })
             defects
         in
         (match Mfb_repair.Defect.check full.Mfb_core.Result.chip plan with
          | Error reason ->
            rejected ~key ~backend ~why:"invalid defects" reason
          | Ok () ->
            let compute_ticks = if warm then 1 else 2 in
            let run () =
              Mfb_repair.Plan.repair ~config:job.config full ~defects
            in
            (* the repair span lands under a real request span on this
               request's subtrack *)
            let o =
              if Telemetry.active () then
                Telemetry.on_subtrack (Telemetry.subtrack rid) (fun () ->
                    Telemetry.span ~cat:"serve"
                      ~args:
                        [ ("rid", Telemetry.Str rid); ("id", Telemetry.Str id);
                          ("target", Telemetry.Str target);
                          ("key", Telemetry.Str key);
                          ("outcome", Telemetry.Str "repair") ]
                      "request" run)
              else run ()
            in
            let errors =
              if o.Mfb_repair.Plan.report.survived then
                Mfb_repair.Plan.verify ~config:job.config ~defects o
              else []
            in
            (match errors with
             | err :: _ ->
               rejected ~key ~backend ~why:"illegal repair"
                 ("repair produced an illegal result: " ^ err)
             | [] ->
               t.repairs <- t.repairs + 1;
               if warm then t.repairs_warm <- t.repairs_warm + 1;
               let latency =
                 match t.cfg.clock with
                 | `Virtual -> float_of_int compute_ticks
                 | `Wall -> (Unix.gettimeofday () -. wall0) *. 1000.0
               in
               Histogram.add t.h_repair latency;
               log ~key ~backend
                 ~outcome:(if warm then "repair" else "repair-cold")
                 ~compute_ticks ();
               P.Repair_result
                 {
                   id;
                   target;
                   key = Cache_key.to_hex job.key;
                   warm;
                   report = Mfb_repair.Plan.report_to_json o.report;
                 })))
  end

let handle t req =
  match req with
  | P.Submit { id; priority; deadline; flow; spec; overrides; trace = _ } ->
    (* the serving tier assigns its own request ids; inbound trace
       context is only meaningful on the worker wire protocol *)
    handle_submit t ~id ~priority ~deadline ~flow ~spec ~overrides
  | P.Status id ->
    (match Hashtbl.find_opt t.outcomes id with
     | Some (Done _) -> P.Job_status { id; state = "done" }
     | Some (Shed _) -> P.Job_status { id; state = "shed" }
     | None ->
       if Job_queue.position t.queue id <> None then
         P.Job_status { id; state = "queued" }
       else P.Bad_request { id = Some id; message = "unknown id" })
  | P.Result id ->
    if
      (not (Hashtbl.mem t.outcomes id))
      && Job_queue.position t.queue id <> None
    then drain_until t id;
    (match Hashtbl.find_opt t.outcomes id with
     | Some (Done { key; payload }) ->
       P.Job_result
         { id; key = Cache_key.to_hex key; result = payload; spans = None }
     | Some (Shed reason) -> P.Rejected { op = "result"; id; reason }
     | None -> P.Bad_request { id = Some id; message = "unknown id" })
  | P.Repair { id; target; defects } -> handle_repair t ~id ~target ~defects
  | P.Stats -> P.Stats_reply (stats_json t)
  | P.Stats_prom -> P.Stats_text (prometheus_stats t)
  | P.Shutdown ->
    t.stopping <- true;
    (* drain in-flight jobs so the final stats snapshot accounts for
       every accepted submission (computed or shed, never dropped) *)
    while Job_queue.length t.queue > 0 do
      process_batch t
    done;
    P.Goodbye (goodbye_json t)

let handle_line t line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then None
  else
    let response =
      match P.request_of_line trimmed with
      | Error message -> P.Bad_request { id = None; message }
      | Ok req ->
        (match handle t req with
         | resp -> resp
         | exception exn ->
           P.Bad_request
             { id = None; message = "internal: " ^ Printexc.to_string exn })
    in
    Some (P.response_to_line response)

let serve ?(input = stdin) ?(output = stdout) t =
  (* A client that closes its read end between request and reply must
     surface as EPIPE on our write, never as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* true once the reply channel is gone: the dropped reply is logged
     and the loop stops — the work itself (cache fills, counters, access
     log) has already happened and is kept. *)
  let output_dead = ref false in
  let respond = function
    | None -> ()
    | Some resp ->
      (try
         output_string output resp;
         output_char output '\n';
         flush output
       with Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
         output_dead := true;
         Printf.eprintf
           "dcsa-serve: client disconnected; dropped reply (%d bytes)\n%!"
           (String.length resp + 1))
  in
  let rec loop () =
    if not (t.stopping || !output_dead) then
      match P.input_line_bounded input with
      | P.Eof -> ()
      | P.Line line ->
        respond (handle_line t line);
        loop ()
      | P.Oversized len ->
        respond
          (Some
             (P.response_to_line
                (P.Bad_request
                   {
                     id = None;
                     message =
                       Printf.sprintf
                         "input line too long: %d bytes exceeds the %d-byte \
                          limit"
                         len P.default_max_line_bytes;
                   })));
        loop ()
  in
  loop ()
