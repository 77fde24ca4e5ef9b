(** The worker fleet, packaged as a {!Mfb_server.Server} dispatch hook.

    [create] builds a {!Supervisor} over [size] spawned
    [dcsa_synth worker] processes and returns a handle whose
    {!dispatch} has exactly the signature of the server's batch
    runner: resolved jobs in, summary payloads out, order preserved.
    Wire each side up with

    {[
      let cluster = Cluster.create cfg in
      let server =
        Server.create
          { Server.default_config with
            dispatch = Some (Cluster.dispatch cluster);
            extra_series = Some (fun () -> Cluster.series cluster);
          }
    ]}

    The determinism contract of the serving layer extends to the fleet:
    workers recompute the identical deterministic flow from the job's
    original spec and overrides (so [worker_argv] must start workers
    with the same base config as the server), recovery re-dispatches or
    degrades to the same in-process computation, and response payloads
    are therefore byte-identical to [--fleet 0] for every fleet size
    and every fault schedule.  Faults move counters, never bytes.

    [create] ignores SIGPIPE process-wide: a write into a crashed
    worker's pipe must surface as a per-job fault, not kill the
    service. *)

type config = {
  size : int;                        (** worker processes *)
  worker_argv : int -> string array; (** slot -> argv; must establish the
                                         server's base flow config *)
  dispatch : Dispatcher.config;      (** deadlines, retries, heartbeat *)
}

val default_config : worker_argv:(int -> string array) -> size:int -> config
(** {!Dispatcher.default_config}. *)

type t

val create : config -> t
(** @raise Invalid_argument if [size < 1]. *)

val dispatch :
  t -> Mfb_server.Server.job list -> Mfb_server.Server.dispatch_result list
(** Run one batch on the fleet (see {!Dispatcher.run_batch}); falls back
    to {!Mfb_server.Server.run_job} in-process when a job exhausts its
    retries or the fleet is fully down.  Each result carries the
    answering slot, the attempt count, and — when the supervisor side
    has a telemetry sink installed — the worker's span tree parsed from
    the reply. *)

val stats : t -> Dispatcher.stats
val respawns : t -> int

val series : t -> Mfb_server.Server.series list
(** The fleet's stats rows, for the server's [extra_series]: under
    ["cluster"], the fleet size, the respawn / spawn-failure / dispatch
    / retry / degradation / crash / timeout / garbage / heartbeat
    counters and a ["slots"] table of per-slot health (respawns,
    consecutive failures, dispatch successes, last outcome and a
    reply-size histogram snapshot); then one [dcsa_fleet_reply_bytes]
    Prometheus histogram with a [slot] label per fleet member. *)

val stop : t -> unit
(** Kill and reap every worker.  Idempotent. *)
