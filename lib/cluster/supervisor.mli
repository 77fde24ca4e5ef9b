(** Supervision tree root for the worker fleet.

    One {e slot} per fleet position.  A slot is either running a
    {!Worker_proc.t}, or backing off after a failure.  Failures back
    off exponentially in {e virtual ticks} (the dispatcher advances one
    tick per wave): after the [f]-th consecutive failure the slot waits
    [min 8 (2^(f-1))] ticks before the next spawn attempt,
    and a successful job resets the streak.  Time is the caller's tick
    counter, never wall-clock, so a replay of the same fault schedule
    respawns at the same points.

    Spawn failures (missing binary, fork failure) count like worker
    failures, so a hopeless fleet converges to everyone backing off at
    the cap — which the dispatcher answers with in-process
    degradation. *)

type t

val create : size:int -> (int -> string array) -> t
(** [create ~size argv_of_slot] prepares [size] slots; nothing is
    spawned until the first {!tick}.
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

val tick : t -> unit
(** Advance virtual time one step: reap workers that died on their own
    (scheduling them for respawn like any failure), then spawn every
    slot whose backoff has expired. *)

val live : t -> (int * Worker_proc.t) list
(** Running slots in slot order. *)

val fail : ?outcome:string -> t -> int -> unit
(** Report a worker fault on a slot: kill the process, extend the
    slot's failure streak, and schedule a backed-off respawn.
    [outcome] (default ["fault"]) labels the slot's last-outcome in
    {!slot_health} — the dispatcher passes ["crash"], ["timeout"],
    ["garbage"] or ["heartbeat"]. *)

val succeed : t -> int -> unit
(** Report a completed job: resets the slot's failure streak, counts a
    success, and records last-outcome ["ok"]. *)

val slot_health : t -> int -> int * int * int * string
(** [(respawns, consecutive_failures, ok, last_outcome)] for one slot.
    [last_outcome] starts as ["never"]; ["died"] marks a worker reaped
    between jobs, ["spawn-failure"] a failed spawn attempt. *)

val stop : t -> unit
(** Kill every running worker and stop respawning. *)

val respawns : t -> int
(** Spawn attempts beyond each slot's first (the supervision-activity
    counter surfaced in serve stats and telemetry). *)

val spawn_failures : t -> int
