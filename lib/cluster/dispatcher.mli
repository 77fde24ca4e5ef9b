(** Batch dispatch onto the fleet, with retry and degradation.

    Jobs run in {e waves}: each wave assigns at most one job per live
    worker (jobs in batch order, slots in slot order, skipping each
    job's excluded slots), sends every request, then collects responses
    in job order under a per-job wall-clock deadline.  A fault — EOF
    (crash), deadline (stall), an unparseable, mismatched or oversized
    response line (garbage / truncation) — kills the worker via
    {!Supervisor.fail}, adds the slot to the job's excluded set, and
    retries the job on another worker in a later wave, at most
    [max_retries] extra attempts.

    Degradation is the answer-preserving escape hatch: a job whose
    retries are exhausted, whose excluded set covers every live slot,
    or that finds the fleet entirely down is computed in-process via
    the [degrade] callback.  Since workers and the in-process path run
    the identical deterministic flow, every recovery route yields the
    same payload bytes — faults can change counters and latency, never
    answers.

    Result order is by construction the input order (slots of an array
    indexed by job position), so the fleet is a drop-in replacement for
    the in-process pool path. *)

type config = {
  timeout : float;      (** per-job response deadline, seconds *)
  hb_timeout : float;   (** heartbeat deadline, seconds *)
  max_retries : int;    (** extra attempts before degradation *)
  heartbeat : bool;     (** ping live workers at batch start *)
}

val default_config : config
(** 30 s deadline, 5 s heartbeat, 2 retries, heartbeat on. *)

type stats = {
  mutable dispatched : int;  (** requests answered by a worker *)
  mutable retries : int;
  mutable degraded : int;
  mutable crashes : int;     (** EOF before a response *)
  mutable timeouts : int;    (** deadline expiries *)
  mutable garbage : int;     (** unparseable, mismatched or oversized
                                 responses *)
  mutable heartbeat_failures : int;
}

val make_stats : unit -> stats

type meta = {
  m_slot : int option;
      (** slot that answered; [None] when the job was degraded *)
  m_attempts : int;
      (** total attempts including the answering one, so
          [m_attempts - 1] is the retry count *)
}
(** Per-job dispatch attribution, returned alongside each payload so
    the serving tier can log and trace which slot answered and how many
    attempts it took. *)

val run_batch :
  cfg:config ->
  sup:Supervisor.t ->
  stats:stats ->
  degrade:('job -> 'payload) ->
  to_line:('job -> wire_id:string -> string) ->
  of_line:(wire_id:string -> slot:int -> string -> 'payload option) ->
  'job list ->
  ('payload * meta) list
(** [run_batch ~cfg ~sup ~stats ~degrade ~to_line ~of_line jobs] returns
    one payload (with its dispatch {!meta}) per job, in order.
    [to_line] serializes a job as a wire request carrying [wire_id];
    [of_line] parses a response line read from [slot], returning [None]
    unless it is a well-formed answer to [wire_id] (triggering the
    garbage path). *)
