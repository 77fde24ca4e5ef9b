type config = {
  timeout : float;
  hb_timeout : float;
  max_retries : int;
  heartbeat : bool;
}

let default_config =
  { timeout = 30.0; hb_timeout = 5.0; max_retries = 2; heartbeat = true }

type stats = {
  mutable dispatched : int;
  mutable retries : int;
  mutable degraded : int;
  mutable crashes : int;
  mutable timeouts : int;
  mutable garbage : int;
  mutable heartbeat_failures : int;
}

let make_stats () =
  {
    dispatched = 0;
    retries = 0;
    degraded = 0;
    crashes = 0;
    timeouts = 0;
    garbage = 0;
    heartbeat_failures = 0;
  }

type meta = {
  m_slot : int option;  (* answering slot; None when degraded *)
  m_attempts : int;     (* total attempts including the answering one *)
}

type 'job pending = {
  index : int;
  job : 'job;
  mutable excluded : int list;  (* slots that already failed this job *)
  mutable attempts : int;       (* failed attempts so far *)
}

let run_batch ~cfg ~sup ~stats ~degrade ~to_line ~of_line jobs =
  let n = List.length jobs in
  let results = Array.make n None in
  let pending =
    ref
      (List.mapi
         (fun index job -> { index; job; excluded = []; attempts = 0 })
         jobs)
  in
  let degrade_job p =
    stats.degraded <- stats.degraded + 1;
    results.(p.index) <-
      Some (degrade p.job, { m_slot = None; m_attempts = p.attempts + 1 })
  in
  (* A fault burns one attempt and poisons the slot for this job; the
     job either retries in a later wave or degrades in-process. *)
  let fault p slot ~outcome ~counter =
    counter ();
    Supervisor.fail ~outcome sup slot;
    p.excluded <- slot :: p.excluded;
    p.attempts <- p.attempts + 1;
    if p.attempts > cfg.max_retries then degrade_job p
    else stats.retries <- stats.retries + 1
  in
  let garbage p slot =
    fault p slot ~outcome:"garbage" ~counter:(fun () ->
        stats.garbage <- stats.garbage + 1)
  in
  Supervisor.tick sup;
  if cfg.heartbeat then
    List.iter
      (fun (slot, w) ->
        if not (Worker_proc.ping ~timeout:cfg.hb_timeout w) then begin
          stats.heartbeat_failures <- stats.heartbeat_failures + 1;
          Supervisor.fail ~outcome:"heartbeat" sup slot
        end)
      (Supervisor.live sup);
  while !pending <> [] do
    let live = Supervisor.live sup in
    if live = [] then begin
      (* fleet fully down: graceful degradation for the whole batch *)
      List.iter degrade_job !pending;
      pending := []
    end
    else begin
      (* one job per live slot per wave, jobs in batch order *)
      let taken = Hashtbl.create 8 in
      let wave = ref [] in
      List.iter
        (fun p ->
          match
            List.find_opt
              (fun (slot, _) ->
                (not (List.mem slot p.excluded))
                && not (Hashtbl.mem taken slot))
              live
          with
          | Some (slot, w) ->
            Hashtbl.add taken slot ();
            wave := (p, slot, w) :: !wave
          | None ->
            if
              List.for_all (fun (slot, _) -> List.mem slot p.excluded) live
            then degrade_job p  (* every live slot already failed it *)
            (* else: all free slots taken this wave — wait for the next *))
        !pending;
      let wave = List.rev !wave in
      (* send phase: a write failure is a crash observed early *)
      let sent =
        List.filter_map
          (fun (p, slot, w) ->
            let wire_id = Printf.sprintf "j%d" p.index in
            match Worker_proc.send_line w (to_line p.job ~wire_id) with
            | Ok () -> Some (p, slot, w, wire_id)
            | Error _ ->
              fault p slot ~outcome:"crash" ~counter:(fun () ->
                  stats.crashes <- stats.crashes + 1);
              None)
          wave
      in
      (* collect phase, in job order, each read under the deadline *)
      List.iter
        (fun (p, slot, w, wire_id) ->
          match Worker_proc.recv_line ~timeout:cfg.timeout w with
          | Worker_proc.Line line ->
            (match of_line ~wire_id ~slot line with
             | Some payload ->
               results.(p.index) <-
                 Some
                   ( payload,
                     { m_slot = Some slot; m_attempts = p.attempts + 1 } );
               stats.dispatched <- stats.dispatched + 1;
               Supervisor.succeed sup slot
             | None -> garbage p slot)
          | Worker_proc.Oversized _ -> garbage p slot
          | Worker_proc.Timeout ->
            fault p slot ~outcome:"timeout" ~counter:(fun () ->
                stats.timeouts <- stats.timeouts + 1)
          | Worker_proc.Eof ->
            fault p slot ~outcome:"crash" ~counter:(fun () ->
                stats.crashes <- stats.crashes + 1))
        sent;
      pending := List.filter (fun p -> results.(p.index) = None) !pending;
      (* advance virtual time so backoffs expire and slots respawn *)
      Supervisor.tick sup
    end
  done;
  Array.to_list
    (Array.map
       (function Some payload -> payload | None -> assert false)
       results)
