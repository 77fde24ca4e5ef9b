(* Tests for the discrete-event replay simulator. *)

module Replay = Mfb_sim.Replay
module Types = Mfb_schedule.Types

let tc = 2.0

let sim_of index =
  let g, alloc = List.nth (Testkit.suite_instances ()) index in
  let r = Mfb_core.Flow.run g alloc in
  (r, Replay.create ~tc ~chip:r.chip ~schedule:r.schedule ~routing:r.routing)

let test_events_sorted_and_cover_makespan () =
  let r, sim = sim_of 2 in
  let events = Replay.events sim in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted events);
  Alcotest.(check bool) "reaches completion" true
    (List.exists (fun t -> t >= r.schedule.makespan -. 1e-6) events);
  Alcotest.(check bool) "starts at 0" true (List.hd events <= 1e-9)

let test_state_transitions () =
  let _, sim = sim_of 0 in
  (* Before anything happens every component is idle and channels empty. *)
  let before = Replay.state_at sim (-1.0) in
  Alcotest.(check bool) "all idle before start" true
    (Array.for_all (( = ) Replay.Idle) before.components);
  Alcotest.(check int) "no fluid in channels" 0 (List.length before.cells);
  (* During the first operations some component executes. *)
  let during = Replay.state_at sim 2.0 in
  Alcotest.(check bool) "someone executing at t=2" true
    (Array.exists
       (function Replay.Executing _ -> true | _ -> false)
       during.components)

let test_executing_matches_schedule () =
  let r, sim = sim_of 1 in
  Array.iteri
    (fun op (t : Types.op_times) ->
      let mid = (t.start +. t.finish) /. 2. in
      let snap = Replay.state_at sim mid in
      match snap.components.(t.component) with
      | Replay.Executing running ->
        Alcotest.(check int)
          (Printf.sprintf "op at t=%.1f" mid)
          op running
      | _ -> Alcotest.failf "o%d not executing at %.1f" op mid)
    r.schedule.times

let test_fluid_appears_during_transport () =
  let r, sim = sim_of 2 in
  match r.schedule.transports with
  | [] -> Alcotest.fail "expected transports"
  | tr :: _ ->
    let mid = (tr.removal +. tr.arrive) /. 2. in
    let snap = Replay.state_at sim mid in
    Alcotest.(check bool) "transported fluid visible in channels" true
      (List.exists
         (fun (_, f) -> Mfb_bioassay.Fluid.equal f tr.fluid)
         snap.cells)

let test_frame_rendering () =
  let _, sim = sim_of 0 in
  let f = Replay.frame sim 2.0 in
  Alcotest.(check bool) "has timestamp" true (Testkit.contains f "t = 2.0 s");
  Alcotest.(check bool) "has executing mixers" true (Testkit.contains f "M");
  let fin = Replay.frame sim 1000.0 in
  Alcotest.(check bool) "all idle at the end" true (Testkit.contains fin "_");
  Alcotest.(check bool) "no fluid at the end" false (Testkit.contains fin "*")

let test_replay_deterministic_across_jobs () =
  (* Same seed, different worker counts: the replayed movie must be
     frame-for-frame identical — the simulator sees the same schedule,
     chip and routing no matter how many domains synthesised them. *)
  let g, alloc = List.nth (Testkit.suite_instances ()) 1 in
  let config = { Mfb_core.Config.default with sa_restarts = 3 } in
  let movie jobs =
    let r = Mfb_core.Flow.run ~config ~jobs g alloc in
    let sim =
      Replay.create ~tc ~chip:r.chip ~schedule:r.schedule ~routing:r.routing
    in
    let events = Replay.events sim in
    let frames = List.map (Replay.frame sim) events in
    (events, frames)
  in
  let events1, frames1 = movie 1 in
  let events2, frames2 = movie 2 in
  Alcotest.(check (list (float 0.))) "event times identical" events1 events2;
  Alcotest.(check (list string)) "frames identical" frames1 frames2

let suites =
  [
    ( "sim.replay",
      [
        Alcotest.test_case "events sorted" `Quick
          test_events_sorted_and_cover_makespan;
        Alcotest.test_case "state transitions" `Quick test_state_transitions;
        Alcotest.test_case "executing matches schedule" `Quick
          test_executing_matches_schedule;
        Alcotest.test_case "fluid appears during transport" `Quick
          test_fluid_appears_during_transport;
        Alcotest.test_case "frame rendering" `Quick test_frame_rendering;
        Alcotest.test_case "deterministic across jobs" `Quick
          test_replay_deterministic_across_jobs;
      ] );
  ]
