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

type value =
  | Counter of int
  | Gauge of int
  | Histogram of Histogram.t
  | Info of Json.t

type series = {
  path : string list;
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

type config = {
  jobs : int;
  cache_capacity : int;
  queue_depth : int;
  batch : int;
  repair_cache : int;
  similarity : bool;
  flow_config : Mfb_core.Config.t;
  dispatch : (job list -> dispatch_result list) option;
  extra_series : (unit -> series list) option;
  clock : [ `Virtual | `Wall ];
  access_log : out_channel option;
  slow_threshold : float option;
}

(* The largest {!Sim_index} distance a near-hit may have: a single-op
   edit typically costs 2-6, each differing config knob 2. *)
let sim_threshold = 8

let warm_delta = 0.25

let default_config =
  {
    jobs = 1;
    cache_capacity = 128;
    queue_depth = 64;
    batch = 8;
    repair_cache = 8;
    similarity = false;
    flow_config = Mfb_core.Config.default;
    dispatch = None;
    extra_series = None;
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
  (* Similarity candidates: previously computed jobs with their
     fingerprints, newest first (never [find]-touched, so recency is
     insertion order).  Entries hold the resolved *job*, never its
     result: on a near-hit the candidate's full result is looked up in
     [full] and, when evicted, re-derived cold — deterministically
     byte-identical to the original run — so warm-start decisions and
     payloads are a pure function of the request script whatever the
     cache temperature or dispatch mode. *)
  sim : (Cache_key.t, Sim_index.fp * job) Lru.t option;
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
  {
    cfg;
    cache =
      (if cfg.cache_capacity = 0 then None
       else Some (Lru.create ~capacity:cfg.cache_capacity ()));
    full =
      (if cfg.repair_cache = 0 then None
       else Some (Lru.create ~capacity:cfg.repair_cache ()));
    sim =
      (if not cfg.similarity then None
       else Some (Lru.create ~capacity:(max 16 cfg.cache_capacity) ()));
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

(* The cache-key prefix and backend a request's records carry; ["-"]
   for both when it never resolved to a job. *)
let job_labels = function
  | None -> ("-", "-")
  | Some (job : job) ->
    let hex = Cache_key.to_hex job.key in
    ( (if String.length hex > 8 then String.sub hex 0 8 else hex),
      Mfb_schedule.Portfolio.backend_to_string job.config.backend )

(* Latency in clock units: [ticks] under the virtual clock, wall
   milliseconds since [since] under [`Wall]. *)
let elapsed t ~since ~ticks =
  match t.cfg.clock with
  | `Virtual -> float_of_int ticks
  | `Wall -> (Unix.gettimeofday () -. since) *. 1000.0

(* One JSONL record with a fixed field order, so [cmp] can prove the log
   is a pure function of the request script.  Fleet attribution rides in
   a trailing optional subobject that identity checks strip. *)
let write_access t ~rid ~id ?job ~outcome ?reason ?batch ?fleet ?spans
    ~queue_ticks ~compute_ticks () =
  match t.cfg.access_log with
  | None -> ()
  | Some oc ->
    let key, backend = job_labels job in
    let fields =
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
               Json.Obj
                 [ ("slot", Json.Int slot); ("retries", Json.Int retries) ] )
           ])
      @ (match spans with None -> [] | Some s -> [ ("spans", s) ])
    in
    output_string oc (Json.to_string (Json.Obj fields));
    output_char oc '\n';
    flush oc

(* [since] is the request's submit time; requests without one (shed,
   rejected) observe no latency. *)
let finish_request t ~rid ~id ?job ~outcome ?reason ?batch ?fleet ?since
    ?(worker_spans = []) ~queue_ticks ~compute_ticks () =
  let node =
    let open Telemetry in
    let key, backend = job_labels job in
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
    let phase ?(args = []) name ticks children =
      { n_name = name; n_cat = "serve"; n_args = args;
        n_dur_us = float_of_int ticks; n_children = children }
    in
    phase ~args "request" (queue_ticks + compute_ticks)
      ((if queue_ticks > 0 || compute_ticks > 0 then
          [ phase "queue.wait" queue_ticks [] ]
        else [])
      @
      if compute_ticks > 0 then [ phase "compute" compute_ticks worker_spans ]
      else [])
  in
  if Telemetry.active () then
    Telemetry.on_subtrack (Telemetry.subtrack rid) (fun () ->
        Telemetry.emit_node node);
  let latency =
    Option.map
      (fun since -> elapsed t ~since ~ticks:(queue_ticks + compute_ticks))
      since
  in
  Option.iter (Histogram.add t.h_latency) latency;
  let spans =
    match (t.cfg.slow_threshold, latency) with
    | Some thr, Some l when l >= thr ->
      Some (Json.List [ Telemetry.node_to_json node ])
    | _ -> None
  in
  write_access t ~rid ~id ?job ~outcome ?reason ?batch ?fleet ?spans
    ~queue_ticks ~compute_ticks ();
  (* a rejected submission never owned the record of [id], which may be
     a queued request's *)
  if outcome <> "rejected" then Hashtbl.remove t.req_info id

(* --- batch phases ---

   One virtual tick pops up to [batch] queued jobs and runs them through
   named phases: shed the expired ones, dedup, warm starts, cold runs,
   record, answer batch duplicates, observe.  Each phase walks the batch
   in dispatch order, so every counter and payload is a pure function
   of the request sequence. *)

(* One job the batch computed: the first dispatched request with its
   key, its answer, its full result when it ran in-process, whether a
   warm start produced it, and its similarity fingerprint (computed
   once, only with similarity on and for [`Ours] jobs). *)
type computed = {
  item : job Job_queue.item;
  res : dispatch_result;
  full_result : Mfb_core.Result.t option;
  warm : bool;
  fp : Sim_index.fp option;
}

let in_process d_payload =
  { d_payload; d_slot = None; d_attempts = 1; d_spans = [] }

(* [rejoin xs ys] fills each [None] of [xs], in order, with the next
   element of [ys]. *)
let rec rejoin xs ys =
  match (xs, ys) with
  | [], _ -> []
  | Some x :: xs, ys -> x :: rejoin xs ys
  | None :: xs, y :: ys -> y :: rejoin xs ys
  | None :: _, [] -> invalid_arg "Server.rejoin"

(* A request popped by batch [batch] waited every tick since the one
   after its submission. *)
let finish_item t ~batch ~outcome ?reason ?fleet ?worker_spans ~compute_ticks
    (it : job Job_queue.item) =
  let info = Hashtbl.find t.req_info it.id in
  let queue_ticks = max 0 (batch - it.submitted - 1) in
  Histogram.add t.h_queue_wait (float_of_int queue_ticks);
  finish_request t ~rid:info.rid ~id:it.id ~job:it.payload ~outcome ?reason
    ~batch ?fleet
    ?since:(if outcome = "shed" then None else Some info.submit_wall)
    ?worker_spans ~queue_ticks ~compute_ticks ()

let shed_expired t ~batch dead =
  List.iter
    (fun (it : job Job_queue.item) ->
      t.shed_deadline <- t.shed_deadline + 1;
      Hashtbl.replace t.outcomes it.id
        (Shed
           (Printf.sprintf
              "deadline exceeded: submitted at tick %d with deadline %d, \
               dispatch attempted at tick %d"
              it.submitted
              (Option.value it.deadline ~default:0)
              t.tick));
      finish_item t ~batch ~outcome:"shed" ~reason:"deadline" ~compute_ticks:0
        it)
    dead

(* Each key runs once per batch.  None is cached: a key is queued only
   after a cache miss, and every batch empties the queue, so no batch
   ran between its admission and this one. *)
let dedup dispatched =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (it : job Job_queue.item) ->
      let key = it.payload.key in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    dispatched

(* Warm starts: fingerprint each unique [`Ours] job and warm-start it
   from the full result of its nearest candidate.  Seeds resolve on
   the server thread — [full_result_of] touches the LRUs and
   re-synthesizes cold on eviction, keeping the seed a pure function of
   the request script — then the warm syntheses fan out on the pool.
   A failed warm attempt (quality gate, unroutable task, component
   mismatch) counts as a fallback and runs cold.  Returns each unique
   job with its fingerprint and warm full result, if any. *)
let warm_starts t unique =
  match t.sim with
  | None -> List.map (fun it -> (it, None, None)) unique
  | Some sim ->
    let wall0 = Unix.gettimeofday () in
    let candidates = Lru.bindings sim in
    let planned =
      List.map
        (fun (it : job Job_queue.item) ->
          let job = it.payload in
          let flow = Mfb_core.Flow.name (job.flow :> Mfb_core.Flow.variant) in
          let fp =
            if job.flow <> `Ours then None
            else
              Some
                (Sim_index.fingerprint ~flow ~config:job.config
                   ~graph:job.graph ~allocation:job.allocation ())
          in
          let seed =
            Option.bind fp
              (Sim_index.nearest ~threshold:sim_threshold candidates job.key)
            |> Option.map (fun (_, cjob, _) -> full_result_of t cjob)
          in
          (it, fp, seed))
        unique
    in
    let seeded =
      List.filter_map
        (fun (it, fp, seed) -> Option.map (fun s -> (it, fp, s)) seed)
        planned
    in
    let attempts =
      Mfb_util.Pool.map ~label:"serve-warm" ~jobs:t.cfg.jobs
        (fun ((it : job Job_queue.item), _, (cached, _)) ->
          match
            Mfb_repair.Warm.synthesize ~config:it.payload.config ~cached
              ~delta:warm_delta it.payload.graph it.payload.allocation
          with
          | outcome -> outcome
          | exception e -> Error (Printexc.to_string e))
        seeded
    in
    let warmed =
      List.map2
        (fun (it, fp, (_, cand_warm)) outcome ->
          match outcome with
          | Error _ ->
            t.warm_fallbacks <- t.warm_fallbacks + 1;
            (it, fp, None)
          | Ok (full, _report) ->
            t.near_hits <- t.near_hits + 1;
            (* like repairs: a warm start whose seed sat in the full LRU
               costs 1 virtual tick, one whose seed had to be cold
               re-synthesized costs 2 — the histogram is a deterministic
               record of cache temperature *)
            Histogram.add t.h_warm
              (elapsed t ~since:wall0 ~ticks:(if cand_warm then 1 else 2));
            (it, fp, Some full))
        seeded attempts
    in
    rejoin
      (List.map
         (fun (it, fp, seed) ->
           if Option.is_none seed then Some (it, fp, None) else None)
         planned)
      warmed

(* Cold runs: the jobs no warm start answered go to the dispatch hook
   (a fleet) or the in-process pool, whose full results ride back so
   they can seed later repairs and warm starts.  Trace args resolve on
   the server thread before fan-out, so pool tasks never touch server
   state. *)
let cold_runs t warmed =
  let cold =
    List.filter_map
      (fun (it, fp, full) ->
        if Option.is_none full then Some (it, fp) else None)
      warmed
  in
  let results =
    match t.cfg.dispatch with
    | Some dispatch ->
      List.map
        (fun r -> (r, None))
        (dispatch
           (List.map (fun ((it : job Job_queue.item), _) -> it.payload) cold))
    | None ->
      Mfb_util.Pool.map ~label:"serve-job" ~jobs:t.cfg.jobs
        (fun ((it : job Job_queue.item), trace) ->
          let full = attempt ~trace it.payload in
          ( in_process (Stdlib.Result.map summary_payload full),
            Stdlib.Result.to_option full ))
        (List.map
           (fun ((it : job Job_queue.item), _) ->
             ( it,
               [ ("rid", Telemetry.Str (Hashtbl.find t.req_info it.id).rid);
                 ("key", Telemetry.Str (fst (job_labels (Some it.payload))))
               ] ))
           cold)
  in
  rejoin
    (List.map
       (fun (item, fp, full) ->
         Option.map
           (fun r ->
             { item; fp; warm = true; full_result = full;
               res = in_process (Ok (summary_payload r)) })
           full)
       warmed)
    (List.map2
       (fun (item, fp) (res, full_result) ->
         { item; fp; warm = false; full_result; res })
       cold results)

(* Record outcomes, both LRUs and the similarity candidates.  Every job
   computed without failure (cold, warm or fleet-dispatched) becomes a
   future warm-start seed; candidates carry the resolved job, not the
   result, so they are identical on every transport. *)
let record t computed =
  t.computed <- t.computed + List.length computed;
  List.iter
    (fun c ->
      let job = c.item.payload in
      match c.res.d_payload with
      | Error reason -> Hashtbl.replace t.outcomes c.item.id (Shed reason)
      | Ok payload ->
        Option.iter (fun lru -> Lru.add lru job.key payload) t.cache;
        (match (t.full, c.full_result) with
         | Some lru, Some r -> Lru.add lru job.key r
         | _ -> ());
        (match (t.sim, c.fp) with
         | Some sim, Some fp -> Lru.add sim job.key (fp, job)
         | _ -> ());
        Hashtbl.replace t.outcomes c.item.id
          (Done { key = job.key; payload }))
    computed

let computed_for computed (it : job Job_queue.item) =
  List.find_opt
    (fun c -> Cache_key.equal c.item.payload.key it.payload.key)
    computed

(* Batch duplicates take their key's run's answer.  Their admission
   already counted a cache miss, so they do not ask the cache again. *)
let answer_duplicates t computed dispatched =
  List.iter
    (fun (it : job Job_queue.item) ->
      if not (Hashtbl.mem t.outcomes it.id) then
        Hashtbl.replace t.outcomes it.id
          (match (Option.get (computed_for computed it)).res.d_payload with
           | Ok payload -> Done { key = it.payload.key; payload }
           | Error reason -> Shed reason))
    dispatched

(* Batch duplicates share the fleet attribution of their key's run, but
   the worker span tree is grafted only under the computing request. *)
let observe t ~batch computed dispatched =
  List.iter
    (fun (it : job Job_queue.item) ->
      let c = computed_for computed it in
      let fleet =
        Option.bind c (fun c ->
            Option.map
              (fun slot -> (slot, max 0 (c.res.d_attempts - 1)))
              c.res.d_slot)
      in
      let worker_spans =
        match c with Some c when c.item.id = it.id -> c.res.d_spans | _ -> []
      in
      match Hashtbl.find_opt t.outcomes it.id with
      | Some (Shed reason) ->
        finish_item t ~batch ~outcome:"shed" ~reason ?fleet ~worker_spans
          ~compute_ticks:1 it
      | _ ->
        let warm = match c with Some c -> c.warm | None -> false in
        finish_item t ~batch
          ~outcome:(if warm then "near-hit" else "done")
          ?fleet ~worker_spans ~compute_ticks:1 it)
    dispatched

let process_batch t =
  t.tick <- t.tick + 1;
  let batch = t.tick in
  let dispatched, dead =
    Job_queue.pop_batch t.queue ~now:t.tick ~max:t.cfg.batch
  in
  shed_expired t ~batch dead;
  let computed = cold_runs t (warm_starts t (dedup dispatched)) in
  record t computed;
  answer_duplicates t computed dispatched;
  observe t ~batch computed dispatched

(* A queued job has no outcome yet; the batch that pops it gives it
   one. *)
let drain_until t id =
  while Job_queue.position t.queue id <> None do
    process_batch t
  done

(* --- stats ---

   Every series is one row, listed once in stats-JSON order.  The stats
   JSON nests the rows by path, the Prometheus exposition renders the
   named ones, and the Goodbye totals read counters back by path.  The
   near and repair rows appear only once that path ran, so the outputs
   of scripts that never take it keep their bytes. *)

let series t =
  let row ?(labels = []) path value name help =
    { path; name; labels; help; value }
  in
  let info path json = row path (Info json) "" "" in
  let latency what = what ^ " latency (ticks, or ms in wall mode)" in
  [ row [ "tick" ] (Gauge t.tick) "dcsa_tick" "virtual batch clock";
    row [ "submitted" ] (Counter t.submitted) "dcsa_submitted_total"
      "accepted submissions";
    row [ "computed" ] (Counter t.computed) "dcsa_computed_total"
      "jobs synthesised (after dedup)" ]
  @ (match t.cache with
     | None -> [ info [ "cache" ] Json.Null ]
     | Some c ->
       let s = Lru.stats c in
       let counter key n =
         row [ "cache"; key ] (Counter n)
           ("dcsa_cache_" ^ key ^ "_total")
           ("result cache " ^ key)
       in
       [ info [ "cache"; "capacity" ] (Json.Int (Lru.capacity c));
         row [ "cache"; "entries" ] (Gauge (Lru.length c)) "dcsa_cache_entries"
           "live result cache entries";
         counter "hits" s.hits; counter "misses" s.misses;
         counter "evictions" s.evictions ])
  @ [ info [ "queue"; "depth" ] (Json.Int (Job_queue.depth t.queue));
      row [ "queue"; "queued" ] (Gauge (Job_queue.length t.queue))
        "dcsa_queue_length" "jobs waiting in the queue" ]
  @ List.map
      (fun (reason, n) ->
        row [ "shed"; reason ] (Counter n) "dcsa_shed_total"
          "jobs shed before completion" ~labels:[ ("reason", reason) ])
      [ ("deadline", t.shed_deadline); ("displaced", t.shed_displaced) ]
  @ [ row [ "rejected" ] (Counter t.rejected) "dcsa_rejected_total"
        "refused submissions";
      row [ "latency" ] (Histogram t.h_latency) "dcsa_request_latency"
        (latency "request");
      row [ "queue_wait" ] (Histogram t.h_queue_wait) "dcsa_queue_wait_ticks"
        "queue wait (virtual ticks)" ]
  @ (if t.near_hits + t.warm_fallbacks = 0 then []
     else
       [ row [ "near"; "hits" ] (Counter t.near_hits) "dcsa_near_hits_total"
           "submissions answered by a warm start from a similar cached \
            solution";
         row [ "near"; "fallbacks" ] (Counter t.warm_fallbacks)
           "dcsa_warm_fallbacks_total"
           "warm-start attempts that fell back to cold synthesis";
         row [ "near"; "latency" ] (Histogram t.h_warm) "dcsa_warm_latency"
           (latency "warm-start") ])
  @ (if t.repairs = 0 then []
     else
       [ row [ "repair"; "total" ] (Counter t.repairs) "dcsa_repairs_total"
           "repair requests answered";
         row [ "repair"; "warm" ] (Counter t.repairs_warm)
           "dcsa_repairs_warm_total"
           "repairs warm-started from a retained full result";
         row [ "repair"; "latency" ] (Histogram t.h_repair)
           "dcsa_repair_latency" (latency "repair") ])
  @ [ info [ "jobs" ] (Json.Int t.cfg.jobs);
      info [ "config" ] (Mfb_core.Config.to_json t.cfg.flow_config) ]
  @ match t.cfg.extra_series with None -> [] | Some f -> f ()

(* (path, value) pairs nested into objects by path, keys in
   first-appearance order. *)
let rec nest = function
  | [] -> []
  | ([], _) :: rows -> nest rows
  | ([ k ], v) :: rows -> (k, v) :: nest rows
  | (k :: _, _) :: _ as rows ->
    let inside, rows = List.partition (fun (p, _) -> List.hd p = k) rows in
    (k, Json.Obj (nest (List.map (fun (p, v) -> (List.tl p, v)) inside)))
    :: nest rows

let rows_json rows =
  nest
    (List.filter_map
       (fun s ->
         if s.path = [] then None
         else
           Some
             ( s.path,
               match s.value with
               | Counter n | Gauge n -> Json.Int n
               | Histogram h -> Histogram.snapshot_json h
               | Info j -> j ))
       rows)

let stats_json t = Json.Obj (rows_json (series t))

(* Prometheus text exposition of the named rows, in row order, with one
   [# HELP]/[# TYPE] preamble per metric name before its first sample.
   Deterministic under the virtual clock. *)
let prometheus_stats t =
  let buf = Buffer.create 1024 in
  let introduced = ref [] in
  List.iter
    (fun s ->
      let kind =
        match s.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
        | Info _ -> ""
      in
      if s.name <> "" && kind <> "" && not (List.mem s.name !introduced)
      then begin
        introduced := s.name :: !introduced;
        Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" s.name
          (Histogram.escape_help s.help) s.name kind
      end;
      match s.value with
      | _ when s.name = "" -> ()
      | Counter n | Gauge n ->
        let labels =
          String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" k (Histogram.escape_label v))
               s.labels)
        in
        Printf.bprintf buf "%s%s %d\n" s.name
          (if labels = "" then "" else "{" ^ labels ^ "}")
          n
      | Histogram h ->
        Histogram.prometheus ~labels:s.labels ~header:false ~name:s.name buf h
      | Info _ -> ())
    (series t);
  Buffer.contents buf

(* The Goodbye record: the stats plus authoritative counter totals, read
   back from the rows by path (0 for a path without a counter row). *)
let goodbye_json t =
  let rows = series t in
  let count path =
    match List.find_opt (fun s -> s.path = path) rows with
    | Some { value = Counter n; _ } -> n
    | _ -> 0
  in
  let group section keys =
    ( section,
      Json.Obj (List.map (fun k -> (k, Json.Int (count [ section; k ]))) keys)
    )
  in
  let totals =
    [ group "cache" [ "hits"; "misses"; "evictions" ];
      ( "queue",
        Json.Obj
          [ ("submitted", Json.Int (count [ "submitted" ]));
            ("computed", Json.Int (count [ "computed" ]));
            ( "shed",
              Json.Int
                (count [ "shed"; "deadline" ]
                + count [ "shed"; "displaced" ]) );
            ("rejected", Json.Int (count [ "rejected" ])) ] );
      group "cluster" [ "dispatched"; "retries"; "degraded"; "respawns" ] ]
  in
  Json.Obj (rows_json rows @ [ ("totals", Json.Obj totals) ])

let near_hit_counts t = (t.near_hits, t.warm_fallbacks)

(* --- request handling --- *)

let handle_submit t ~id ~priority ~deadline ~flow ~spec ~overrides =
  let rid = next_rid t in
  let rejected ?job why reason =
    finish_request t ~rid ~id ?job ~outcome:"rejected" ~reason:why
      ~queue_ticks:0 ~compute_ticks:0 ();
    P.Rejected { op = "submit"; id; reason }
  in
  (* admit [job] under [id]: counted, and tracked until it finishes *)
  let accept job =
    Hashtbl.replace t.ids id ();
    Hashtbl.replace t.specs id job;
    t.submitted <- t.submitted + 1;
    let info =
      { rid; submit_tick = t.tick; submit_wall = Unix.gettimeofday () }
    in
    Hashtbl.replace t.req_info id info;
    info
  in
  if Hashtbl.mem t.ids id then rejected "duplicate id" "duplicate id"
  else
    match resolve_job t ~flow ~overrides spec with
    | Error reason ->
      t.rejected <- t.rejected + 1;
      rejected "invalid spec" reason
    | Ok job ->
      (match Option.bind t.cache (fun c -> Lru.find c job.key) with
       | Some payload ->
         let info = accept job in
         Hashtbl.replace t.outcomes id (Done { key = job.key; payload });
         finish_request t ~rid ~id ~job ~outcome:"hit" ~since:info.submit_wall
           ~queue_ticks:0 ~compute_ticks:0 ();
         P.Submitted { id; key = Cache_key.to_hex job.key }
       | None ->
         (match
            Job_queue.submit t.queue ~now:t.tick ~id ~priority ?deadline job
          with
          | Job_queue.Refused reason ->
            t.rejected <- t.rejected + 1;
            rejected ~job "queue full" reason
          | admission ->
            (match admission with
             | Job_queue.Displaced shed ->
               t.shed_displaced <- t.shed_displaced + 1;
               Hashtbl.replace t.outcomes shed.id
                 (Shed
                    (Printf.sprintf
                       "displaced by higher-priority submission %S" id));
               let sinfo = Hashtbl.find t.req_info shed.id in
               finish_request t ~rid:sinfo.rid ~id:shed.id ~job:shed.payload
                 ~outcome:"shed" ~reason:"displaced"
                 ~queue_ticks:(max 0 (t.tick - sinfo.submit_tick))
                 ~compute_ticks:0 ()
             | _ -> ());
            ignore (accept job);
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
  let log ?job ~outcome ?reason ~compute_ticks () =
    write_access t ~rid ~id ?job ~outcome ?reason ~queue_ticks:0
      ~compute_ticks ()
  in
  let rejected ?job why reason =
    log ?job ~outcome:"rejected" ~reason:why ~compute_ticks:0 ();
    P.Rejected { op = "repair"; id; reason }
  in
  if Hashtbl.mem t.ids id then rejected "duplicate id" "duplicate id"
  else begin
    (* a still-queued target is forced to an outcome first, exactly as a
       [result] request would *)
    drain_until t target;
    match Hashtbl.find_opt t.specs target with
    | None ->
      log ~outcome:"rejected" ~reason:"unknown target" ~compute_ticks:0 ();
      P.Bad_request
        { id = Some id;
          message = Printf.sprintf "unknown target id %S" target }
    | Some job ->
      (match Hashtbl.find_opt t.outcomes target with
       | Some (Shed reason) ->
         rejected ~job "target shed" ("target was shed: " ^ reason)
       | None -> rejected ~job "target pending" "target has no result yet"
       | Some (Done _) ->
         let full, warm = full_result_of t job in
         let plan =
           List.map
             (fun tg -> { Mfb_repair.Defect.tick = 0; target = tg })
             defects
         in
         (match Mfb_repair.Defect.check full.Mfb_core.Result.chip plan with
          | Error reason ->
            rejected ~job "invalid defects" reason
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
                          ("key", Telemetry.Str (fst (job_labels (Some job))));
                          ("outcome", Telemetry.Str "repair") ]
                      "request" run)
              else run ()
            in
            let errors =
              if o.Mfb_repair.Plan.report.survived then
                Mfb_repair.Audit.check ~config:job.config ~defects
                  o.schedule o.chip o.routing
              else []
            in
            (match errors with
             | err :: _ ->
               rejected ~job "illegal repair"
                 ("repair produced an illegal result: " ^ err)
             | [] ->
               (* only an answered repair uses up its id, as only an
                  admitted submit does *)
               Hashtbl.replace t.ids id ();
               t.repairs <- t.repairs + 1;
               if warm then t.repairs_warm <- t.repairs_warm + 1;
               Histogram.add t.h_repair
                 (elapsed t ~since:wall0 ~ticks:compute_ticks);
               log ~job
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
    drain_until t id;
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
