(** Line-delimited JSON protocol of the synthesis service.

    One request per input line, one JSON response object per line on the
    way back.  Blank lines and lines starting with [#] are ignored by
    the server loop, so here-doc scripts can be commented.

    Requests (the ["op"] field selects the operation):

    {v
    {"op":"submit","id":"r1","benchmark":"PCR"}
    {"op":"submit","id":"r2","assay":"assay \"x\"\n...","alloc":[3,2,0,2],
     "priority":5,"deadline":3,"flow":"ours","seed":7}
    {"op":"status","id":"r1"}
    {"op":"result","id":"r1"}
    {"op":"repair","id":"p1","target":"r1",
     "defects":[{"kind":"cell","x":3,"y":4}]}
    {"op":"stats"}
    {"op":"shutdown"}
    v}

    [submit] carries either a built-in benchmark name or an inline assay
    text (the {!Mfb_bioassay.Assay_file} format with [\n] escapes);
    [priority] (default 0, higher runs first), [deadline] (queue ticks
    the job may wait before being shed; absent = no deadline) and the
    per-request config overrides [seed] / [tc] / [sa_restarts] /
    [backend] (["heuristic" | "exact" | "portfolio"]) are optional.

    Responses repeat the request [id] so scripted clients can correlate;
    every response carries ["ok"] and ["op"].  [result] payloads contain
    only the deterministic scalar metrics ({!Mfb_core.Result.summary}),
    so for a given request they are byte-identical whatever the cache
    temperature or [--jobs] value of the server. *)

type spec =
  | Benchmark of string  (** a Table-I benchmark name *)
  | Assay of {
      text : string;  (** inline assay-file text *)
      alloc : (int * int * int * int) option;
          (** (m,h,f,d); default: minimal allocation covering the assay *)
    }

type overrides = {
  o_seed : int option;
  o_tc : float option;
  o_sa_restarts : int option;
  o_backend : Mfb_schedule.Portfolio.backend option;
      (** scheduling backend for this request; changes the cache key *)
}

val no_overrides : overrides

type request =
  | Submit of {
      id : string;
      priority : int;
      deadline : int option;
      flow : [ `Ours | `Ba ];
      spec : spec;
      overrides : overrides;
      trace : string option;
          (** distributed-trace context (the request id assigned by the
              serving tier); a worker that receives it ships its span
              tree back in the reply *)
    }
  | Status of string  (** job id *)
  | Result of string  (** job id *)
  | Repair of {
      id : string;  (** id of this repair request *)
      target : string;  (** id of a previously submitted job *)
      defects : Mfb_repair.Defect.target list;
          (** non-empty; the {!Mfb_repair.Defect.target_to_json} entry
              shape, without ticks — the client resolves a timed plan to
              the defect set visible now *)
    }
  | Stats
  | Stats_prom  (** [{"op":"stats","format":"prometheus"}] *)
  | Shutdown

type response =
  | Submitted of { id : string; key : string }
  | Rejected of { op : string; id : string; reason : string }
      (** admission refusal, shed job, unknown id, bad spec … *)
  | Job_status of { id : string; state : string }
      (** state: ["queued"], ["done"], ["shed"] *)
  | Job_result of {
      id : string;
      key : string;
      result : Mfb_util.Json.t;
      spans : Mfb_util.Json.t option;
          (** worker-side span forest ([Telemetry.node_to_json] list);
              present only when the request carried trace context, so
              client-visible bytes are unchanged otherwise *)
    }
  | Repair_result of {
      id : string;
      target : string;
      key : string;  (** cache key of the repaired job *)
      warm : bool;
          (** [true] when the repair warm-started from the retained full
              result of the target job; [false] when the server had to
              re-synthesize it first.  Does not affect the report bytes. *)
      report : Mfb_util.Json.t;  (** {!Mfb_repair.Plan.report_to_json} *)
    }
  | Stats_reply of Mfb_util.Json.t
  | Stats_text of string
      (** Prometheus text exposition answering {!Stats_prom} *)
  | Goodbye of Mfb_util.Json.t  (** shutdown ack carrying final stats *)
  | Bad_request of { id : string option; message : string }
      (** malformed request *)

val request_of_line : string -> (request, string) result
val request_to_line : request -> string

val response_to_line : response -> string
val response_of_line : string -> (response, string) result

val default_max_line_bytes : int
(** Cap on an input line, [1 lsl 20] bytes. *)
