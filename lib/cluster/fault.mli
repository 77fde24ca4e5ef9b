(** Seeded, deterministic fault injection for the worker fleet.

    A {e fault plan} maps [(worker slot, per-process job index)] pairs to
    misbehaviours.  A worker consults the plan just before answering its
    [n]-th synthesis request ([n] counted since {e its own} process
    start, 0-based, heartbeats excluded), so a respawned worker replays
    its schedule from job 0 — "crash on the first job" poisons a slot
    reproducibly, which is exactly what the supervisor tests need.

    Plans are plain JSON so the CLI, the tests and the cram tests share
    one format:

    {v
    {"faults":[
      {"worker":0,"job":0,"kind":"crash"},
      {"worker":1,"job":2,"kind":"stall"},
      {"worker":0,"job":1,"kind":"garbage"},
      {"worker":1,"job":0,"kind":"truncate"},
      {"worker":0,"job":3,"kind":"slow","seconds":0.05}]}
    v}

    Everything here is pure: the same plan against the same dispatch
    sequence produces the same faults, the same retries, and (because
    recovery is answer-preserving) the same response bytes. *)

type kind =
  | Crash      (** exit without answering the request *)
  | Stall      (** never answer; the dispatcher's deadline must fire *)
  | Garbage    (** answer with a non-JSON line *)
  | Truncate   (** write a prefix of the answer, no newline, then exit *)
  | Slow of float  (** sleep this many seconds, then answer normally *)

type entry = { worker : int; job : int; kind : kind }

type plan = entry list

val empty : plan

val lookup : plan -> worker:int -> job:int -> kind option
(** First matching entry wins. *)

val to_json : plan -> Mfb_util.Json.t
val of_json : Mfb_util.Json.t -> (plan, string) result

val to_file : string -> plan -> unit
val of_file : string -> (plan, string) result
