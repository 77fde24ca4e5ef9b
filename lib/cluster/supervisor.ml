type slot_state =
  | Due of int  (* spawn when the tick counter reaches this value *)
  | Running of Worker_proc.t

type t = {
  size_ : int;
  argv_of : int -> string array;
  slots : slot_state array;
  streak : int array;  (* consecutive failures per slot *)
  spawned_once : bool array;
  slot_respawns : int array;
  slot_ok : int array;  (* dispatch successes per slot *)
  last_outcome : string array;
  mutable tick_ : int;
  mutable respawns_ : int;
  mutable spawn_failures_ : int;
  mutable stopped : bool;
}

let create ~size argv_of =
  if size < 1 then invalid_arg "Supervisor.create: size < 1";
  {
    size_ = size;
    argv_of;
    slots = Array.make size (Due 0);
    streak = Array.make size 0;
    spawned_once = Array.make size false;
    slot_respawns = Array.make size 0;
    slot_ok = Array.make size 0;
    last_outcome = Array.make size "never";
    tick_ = 0;
    respawns_ = 0;
    spawn_failures_ = 0;
    stopped = false;
  }

let size t = t.size_
let respawns t = t.respawns_
let spawn_failures t = t.spawn_failures_

(* Respawn backoff cap, in ticks. *)
let backoff_cap = 8

let backoff_delay t slot = min backoff_cap (1 lsl (t.streak.(slot) - 1))

let schedule_respawn t slot =
  t.streak.(slot) <- t.streak.(slot) + 1;
  t.slots.(slot) <- Due (t.tick_ + backoff_delay t slot)

let try_spawn t slot =
  match Worker_proc.spawn ~slot (t.argv_of slot) with
  | w ->
    if t.spawned_once.(slot) then begin
      t.respawns_ <- t.respawns_ + 1;
      t.slot_respawns.(slot) <- t.slot_respawns.(slot) + 1
    end;
    t.spawned_once.(slot) <- true;
    t.slots.(slot) <- Running w
  | exception (Unix.Unix_error _ | Invalid_argument _ | Sys_error _) ->
    t.spawn_failures_ <- t.spawn_failures_ + 1;
    t.last_outcome.(slot) <- "spawn-failure";
    schedule_respawn t slot

let tick t =
  if not t.stopped then begin
    t.tick_ <- t.tick_ + 1;
    Array.iteri
      (fun slot state ->
        match state with
        | Running w ->
          if Worker_proc.reap_if_dead w then begin
            (* died on its own between jobs — same as a dispatch fault *)
            Worker_proc.kill w;
            t.last_outcome.(slot) <- "died";
            schedule_respawn t slot
          end
        | Due _ -> ())
      t.slots;
    Array.iteri
      (fun slot state ->
        match state with
        | Due due when t.tick_ >= due -> try_spawn t slot
        | Due _ | Running _ -> ())
      t.slots
  end

let live t =
  Array.to_list
    (Array.mapi (fun i s -> (i, s)) t.slots)
  |> List.filter_map (function
       | i, Running w -> Some (i, w)
       | _, Due _ -> None)

let fail ?(outcome = "fault") t slot =
  (match t.slots.(slot) with
   | Running w -> Worker_proc.kill w
   | Due _ -> ());
  t.last_outcome.(slot) <- outcome;
  schedule_respawn t slot

let succeed t slot =
  t.streak.(slot) <- 0;
  t.slot_ok.(slot) <- t.slot_ok.(slot) + 1;
  t.last_outcome.(slot) <- "ok"

(* Per-slot health snapshot for fleet stats: (respawns, consecutive
   failures, dispatch successes, last outcome). *)
let slot_health t slot =
  ( t.slot_respawns.(slot),
    t.streak.(slot),
    t.slot_ok.(slot),
    t.last_outcome.(slot) )

let stop t =
  t.stopped <- true;
  Array.iteri
    (fun slot state ->
      match state with
      | Running w ->
        Worker_proc.kill w;
        t.slots.(slot) <- Due max_int
      | Due _ -> t.slots.(slot) <- Due max_int)
    t.slots
