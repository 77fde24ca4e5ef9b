(* Tests for the worker fleet: fault plans, the worker servant, pipe
   plumbing, supervision, and the end-to-end byte-identity contract —
   for any batch and any seeded fault schedule, fleet dispatch returns
   exactly the payload bytes of in-process synthesis. *)

module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module Config = Mfb_core.Config
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Fault = Mfb_cluster.Fault
module Worker_main = Mfb_cluster.Worker_main
module Worker_proc = Mfb_cluster.Worker_proc
module Supervisor = Mfb_cluster.Supervisor
module Cluster = Mfb_cluster.Cluster

(* Resolve the CLI binary next to this test executable so the tests work
   from any cwd (dune runtest and dune exec differ). *)
let worker_bin =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/dcsa_synth.exe"

(* The fleet's respawn count, as its ["cluster"] stats row reports it. *)
let respawns cluster =
  match
    List.find_map
      (fun (s : Server.series) ->
        match (s.path, s.value) with
        | [ "cluster"; "respawns" ], Server.Counter n -> Some n
        | _ -> None)
      (Cluster.series cluster)
  with
  | Some n -> n
  | None -> Alcotest.fail "no cluster/respawns row"

let resolve ?seed ?(flow = `Ours) bench =
  let overrides = { P.no_overrides with P.o_seed = seed } in
  match
    Server.resolve ~base:Config.default ~flow ~overrides (P.Benchmark bench)
  with
  | Ok job -> job
  | Error e -> Alcotest.failf "resolve %s: %s" bench e

(* --- fault plans --- *)

let sample_plan =
  [
    { Fault.worker = 0; job = 0; kind = Fault.Crash };
    { Fault.worker = 1; job = 2; kind = Fault.Stall };
    { Fault.worker = 0; job = 1; kind = Fault.Garbage };
    { Fault.worker = 1; job = 0; kind = Fault.Truncate };
    { Fault.worker = 0; job = 3; kind = Fault.Slow 0.05 };
  ]

let test_fault_json_round_trip () =
  match Fault.of_json (Fault.to_json sample_plan) with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok plan ->
    Alcotest.(check bool) "round trip" true (plan = sample_plan)

let test_fault_file_round_trip () =
  let path = Filename.temp_file "fault_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Fault.to_file path sample_plan;
      match Fault.of_file path with
      | Error e -> Alcotest.failf "of_file: %s" e
      | Ok plan ->
        Alcotest.(check bool) "file round trip" true (plan = sample_plan))

let test_fault_lookup () =
  Alcotest.(check bool)
    "hit" true
    (Fault.lookup sample_plan ~worker:1 ~job:2 = Some Fault.Stall);
  Alcotest.(check bool)
    "miss" true
    (Fault.lookup sample_plan ~worker:2 ~job:0 = None);
  (* first matching entry wins *)
  let shadowed =
    { Fault.worker = 0; job = 0; kind = Fault.Garbage } :: sample_plan
  in
  Alcotest.(check bool)
    "first wins" true
    (Fault.lookup shadowed ~worker:0 ~job:0 = Some Fault.Garbage)

(* --- the worker servant, run in-process --- *)

let run_worker ?fault lines =
  let req = Filename.temp_file "worker_req" ".txt" in
  let resp = Filename.temp_file "worker_resp" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req;
      Sys.remove resp)
    (fun () ->
      Out_channel.with_open_text req (fun oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines);
      In_channel.with_open_text req (fun ic ->
          Out_channel.with_open_text resp (fun oc ->
              Worker_main.run ?fault ~index:0 ~config:Config.default ic oc));
      In_channel.with_open_text resp In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun s -> s <> ""))

let submit_line ?seed ?(id = "j0") bench =
  P.request_to_line
    (P.Submit
       {
         id;
         priority = 0;
         deadline = None;
         flow = `Ours;
         spec = P.Benchmark bench;
         overrides = { P.no_overrides with P.o_seed = seed };
         trace = None;
       })

let expected_result_line ?seed ?(id = "j0") bench =
  let job = resolve ?seed bench in
  P.response_to_line
    (P.Job_result
       {
         id;
         key = Mfb_server.Cache_key.to_hex job.Server.key;
         result = Result.get_ok (Server.run_job job);
         spans = None;
       })

let test_worker_answers_submit () =
  match run_worker [ submit_line "PCR" ] with
  | [ line ] ->
    Alcotest.(check string)
      "worker answer = in-process answer" (expected_result_line "PCR") line
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines)

let test_worker_protocol_surface () =
  let lines =
    run_worker
      [
        "# comment";
        "";
        "not json";
        {|{"op":"status","id":"x"}|};
        P.request_to_line P.Stats;
        P.request_to_line P.Shutdown;
        submit_line ~id:"after-shutdown" "PCR";
      ]
  in
  (match lines with
   | [ bad_json; bad_op; stats; goodbye ] ->
     let is_error l =
       match P.response_of_line l with
       | Ok (P.Bad_request _) -> true
       | _ -> false
     in
     Alcotest.(check bool) "malformed line -> error" true (is_error bad_json);
     Alcotest.(check bool) "status -> error" true (is_error bad_op);
     (match P.response_of_line stats with
      | Ok (P.Stats_reply (Json.Obj fields)) ->
        Alcotest.(check bool)
          "heartbeat carries slot" true
          (List.assoc_opt "worker" fields = Some (Json.Int 0))
      | _ -> Alcotest.fail "expected stats reply");
     (match P.response_of_line goodbye with
      | Ok (P.Goodbye _) -> ()
      | _ -> Alcotest.fail "expected goodbye");
     (* nothing answered after shutdown *)
     ()
   | lines -> Alcotest.failf "expected 4 lines, got %d" (List.length lines))

let test_worker_garbage_fault () =
  let fault = [ { Fault.worker = 0; job = 0; kind = Fault.Garbage } ] in
  match run_worker ~fault [ submit_line "PCR"; submit_line ~id:"j1" "IVD" ] with
  | [ garbage; ok ] ->
    Alcotest.(check bool)
      "garbage line is unparseable" true
      (match P.response_of_line garbage with Error _ -> true | Ok _ -> false);
    (* the worker survives a garbage fault and answers the next job *)
    Alcotest.(check string)
      "next job normal" (expected_result_line ~id:"j1" "IVD") ok
  | lines -> Alcotest.failf "expected 2 lines, got %d" (List.length lines)

let test_worker_slow_fault_answers_normally () =
  let fault = [ { Fault.worker = 0; job = 0; kind = Fault.Slow 0.01 } ] in
  match run_worker ~fault [ submit_line "PCR" ] with
  | [ line ] ->
    Alcotest.(check string)
      "slow answer identical" (expected_result_line "PCR") line
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines)

(* --- pipe plumbing --- *)

let test_worker_proc_echo_and_eof () =
  let w = Worker_proc.spawn [| "cat" |] in
  Fun.protect
    ~finally:(fun () -> Worker_proc.kill w)
    (fun () ->
      Alcotest.(check bool)
        "send" true
        (Worker_proc.send_line w "hello" = Ok ());
      Alcotest.(check bool)
        "echo" true
        (Worker_proc.recv_line ~timeout:5.0 w = Worker_proc.Line "hello");
      (* cat echoes requests, not stats replies: ping must fail *)
      Alcotest.(check bool) "ping cat" false (Worker_proc.ping ~timeout:5.0 w);
      Unix.kill (Worker_proc.pid w) Sys.sigkill;
      ignore (Unix.waitpid [] (Worker_proc.pid w));
      Alcotest.(check bool)
        "killed worker reads EOF" true
        (Worker_proc.recv_line ~timeout:5.0 w = Worker_proc.Eof))

let test_worker_proc_timeout () =
  let w = Worker_proc.spawn [| "cat" |] in
  Fun.protect
    ~finally:(fun () -> Worker_proc.kill w)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool)
        "no line -> timeout" true
        (Worker_proc.recv_line ~timeout:0.1 w = Worker_proc.Timeout);
      Alcotest.(check bool)
        "deadline respected" true
        (Unix.gettimeofday () -. t0 < 2.0))

let test_worker_proc_ping_real_worker () =
  let w = Worker_proc.spawn [| worker_bin; "worker"; "--index"; "3" |] in
  Fun.protect
    ~finally:(fun () -> Worker_proc.kill w)
    (fun () ->
      Alcotest.(check bool) "ping" true (Worker_proc.ping ~timeout:10.0 w))

(* A fake worker that answers with one 1.1 MB line, then "ok". *)
let oversized_then_ok =
  [| "sh"; "-c"; "head -c 1100000 /dev/zero | tr '\\000' x; echo; echo ok" |]

let test_worker_proc_oversized_reply () =
  let w = Worker_proc.spawn oversized_then_ok in
  Fun.protect
    ~finally:(fun () -> Worker_proc.kill w)
    (fun () ->
      Alcotest.(check bool)
        "oversized reply reported once, with its length" true
        (Worker_proc.recv_line ~timeout:10.0 w = Worker_proc.Oversized 1100000);
      Alcotest.(check bool)
        "next line intact" true
        (Worker_proc.recv_line ~timeout:10.0 w = Worker_proc.Line "ok");
      Alcotest.(check bool)
        "then EOF" true
        (Worker_proc.recv_line ~timeout:10.0 w = Worker_proc.Eof))

let test_worker_oversized_line_like_serve () =
  (* the worker's stdin and stdio serve run the same loop: an oversized
     request line gets the same error bytes from both *)
  let big = String.make 1_100_000 'a' in
  let reply argv =
    let w = Worker_proc.spawn argv in
    Fun.protect
      ~finally:(fun () -> Worker_proc.kill w)
      (fun () ->
        Alcotest.(check bool) "send" true (Worker_proc.send_line w big = Ok ());
        match Worker_proc.recv_line ~timeout:30.0 w with
        | Worker_proc.Line line -> line
        | _ -> Alcotest.failf "%s: no reply line" argv.(1))
  in
  let expected =
    {|{"ok":false,"op":"error","message":"input line too long: 1100000 bytes exceeds the 1048576-byte limit"}|}
  in
  Alcotest.(check string) "worker" expected (reply [| worker_bin; "worker" |]);
  Alcotest.(check string) "serve" expected (reply [| worker_bin; "serve" |])

let test_worker_closed_reply_pipe_exits_cleanly () =
  (* a supervisor that closed the reply pipe costs the worker a logged
     dropped reply and a clean exit, not a SIGPIPE death *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process worker_bin [| worker_bin; "worker" |] in_r out_w null
  in
  List.iter Unix.close [ in_r; out_w; null; out_r ];
  let line = P.request_to_line P.Stats ^ "\n" in
  ignore (Unix.write_substring in_w line 0 (String.length line));
  Unix.close in_w;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> Alcotest.(check int) "exit status" 0 code
  | Unix.WSIGNALED n -> Alcotest.failf "worker killed by signal %d" n
  | Unix.WSTOPPED _ -> Alcotest.fail "worker stopped"

(* --- supervision --- *)

let test_supervisor_respawns_with_backoff () =
  let sup = Supervisor.create ~size:1 (fun _ -> [| "cat" |]) in
  Fun.protect
    ~finally:(fun () -> Supervisor.stop sup)
    (fun () ->
      Alcotest.(check int) "idle before first tick" 0
        (List.length (Supervisor.live sup));
      Supervisor.tick sup;
      Alcotest.(check int) "spawned" 1 (List.length (Supervisor.live sup));
      Alcotest.(check int) "first spawn is not a respawn" 0
        (Supervisor.respawns sup);
      (* first failure: streak 1, back off one tick *)
      Supervisor.fail sup 0;
      Alcotest.(check int) "dead after fail" 0
        (List.length (Supervisor.live sup));
      Supervisor.tick sup;
      Alcotest.(check int) "respawned after one tick" 1
        (List.length (Supervisor.live sup));
      Alcotest.(check int) "respawn counted" 1 (Supervisor.respawns sup);
      (* second consecutive failure: streak 2, two-tick backoff *)
      Supervisor.fail sup 0;
      Supervisor.tick sup;
      Alcotest.(check int) "still backing off" 0
        (List.length (Supervisor.live sup));
      Supervisor.tick sup;
      Alcotest.(check int) "respawned after two ticks" 1
        (List.length (Supervisor.live sup));
      (* success resets the streak: next failure is one tick again *)
      Supervisor.succeed sup 0;
      Supervisor.fail sup 0;
      Supervisor.tick sup;
      Alcotest.(check int) "streak reset" 1
        (List.length (Supervisor.live sup)))

let test_supervisor_stop_is_final () =
  let sup = Supervisor.create ~size:2 (fun _ -> [| "cat" |]) in
  Supervisor.tick sup;
  Alcotest.(check int) "both up" 2 (List.length (Supervisor.live sup));
  Supervisor.stop sup;
  Alcotest.(check int) "all down" 0 (List.length (Supervisor.live sup));
  Supervisor.tick sup;
  Alcotest.(check int) "stop sticks" 0 (List.length (Supervisor.live sup))

(* --- the fleet end to end --- *)

let with_cluster ?plan ?(size = 2) ?(timeout = 10.0) ?(max_retries = 2) f =
  let plan_file =
    Option.map
      (fun plan ->
        let path = Filename.temp_file "cluster_plan" ".json" in
        Fault.to_file path plan;
        path)
      plan
  in
  let worker_argv slot =
    Array.of_list
      ([ worker_bin; "worker"; "--index"; string_of_int slot ]
      @ match plan_file with
        | None -> []
        | Some path -> [ "--fault-plan"; path ])
  in
  let cluster =
    Cluster.create
      {
        (Cluster.default_config ~worker_argv ~size) with
        dispatch =
          {
            Mfb_cluster.Dispatcher.default_config with
            timeout;
            hb_timeout = 10.0;
            max_retries;
          };
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Cluster.stop cluster;
      Option.iter Sys.remove plan_file)
    (fun () -> f cluster)

let payload_string = function
  | Ok payload -> Json.to_string payload
  | Error reason -> "error: " ^ reason

let check_payloads name jobs results =
  let expected = List.map Server.run_job jobs in
  Alcotest.(check (list string))
    name
    (List.map payload_string expected)
    (List.map (fun r -> payload_string r.Server.d_payload) results)

let test_cluster_clean_dispatch () =
  let jobs = [ resolve "PCR"; resolve "IVD"; resolve ~seed:7 "PCR" ] in
  with_cluster (fun cluster ->
      check_payloads "clean fleet = in-process" jobs (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check int) "all dispatched" 3 s.Mfb_cluster.Dispatcher.dispatched;
      Alcotest.(check int) "no degradation" 0 s.Mfb_cluster.Dispatcher.degraded;
      Alcotest.(check int) "no respawns" 0 (respawns cluster))

let test_cluster_failing_job_keeps_workers () =
  (* a job whose synthesis raises is answered by a healthy worker: no
     crash, retry or degradation, and the rest of the batch is intact *)
  let bad =
    (* three chained ops of 1e308 s: admitted, but the schedule overflows *)
    let text =
      "assay \"overflow\"\nfluid a 1e-6\nop 0 mix 1e308 a\n\
       op 1 heat 1e308 a\nop 2 detect 1 a\nedge 0 1\nedge 1 2\n"
    in
    match
      Server.resolve ~base:Config.default ~flow:`Ours
        ~overrides:P.no_overrides
        (P.Assay { text; alloc = None })
    with
    | Ok job -> job
    | Error e -> Alcotest.failf "resolve: %s" e
  in
  let jobs = [ bad; resolve "PCR" ] in
  with_cluster (fun cluster ->
      let results = Cluster.dispatch cluster jobs in
      check_payloads "failure and payload = in-process" jobs results;
      (match (List.hd results).Server.d_payload with
       | Error reason ->
         Alcotest.(check bool) "reason names the failure" true
           (String.starts_with ~prefix:"synthesis failed: " reason)
       | Ok _ -> Alcotest.fail "the bad job must fail");
      let s = Cluster.stats cluster in
      Alcotest.(check int) "no crashes" 0 s.Mfb_cluster.Dispatcher.crashes;
      Alcotest.(check int) "no degradation" 0 s.Mfb_cluster.Dispatcher.degraded;
      Alcotest.(check int) "no respawns" 0 (respawns cluster))

let test_cluster_chaos_recovery () =
  (* slot 0 crashes on every first job of every life; slot 1 garbles its
     second.  Every recovery path must land on the identical bytes. *)
  let plan =
    [
      { Fault.worker = 0; job = 0; kind = Fault.Crash };
      { Fault.worker = 1; job = 1; kind = Fault.Garbage };
    ]
  in
  let jobs =
    [ resolve "PCR"; resolve "IVD"; resolve ~seed:3 "PCR"; resolve ~seed:4 "IVD" ]
  in
  with_cluster ~plan ~timeout:5.0 (fun cluster ->
      check_payloads "chaos fleet = in-process" jobs
        (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check bool) "crashes seen" true
        (s.Mfb_cluster.Dispatcher.crashes > 0);
      Alcotest.(check bool) "retries seen" true
        (s.Mfb_cluster.Dispatcher.retries > 0);
      Alcotest.(check bool) "respawns seen" true (respawns cluster > 0))

let test_cluster_stall_hits_deadline () =
  let plan = [ { Fault.worker = 0; job = 0; kind = Fault.Stall } ] in
  let jobs = [ resolve "PCR" ] in
  with_cluster ~plan ~timeout:0.5 (fun cluster ->
      check_payloads "stalled fleet = in-process" jobs
        (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check bool) "timeout seen" true
        (s.Mfb_cluster.Dispatcher.timeouts > 0))

let test_cluster_truncate_reads_as_garbage () =
  (* A truncated response is a partial line at EOF: it surfaces as a
     line, fails to parse, and takes the garbage path. *)
  let plan = [ { Fault.worker = 0; job = 0; kind = Fault.Truncate } ] in
  let jobs = [ resolve "PCR" ] in
  with_cluster ~plan ~timeout:5.0 (fun cluster ->
      check_payloads "truncated fleet = in-process" jobs
        (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check bool) "garbage seen" true
        (s.Mfb_cluster.Dispatcher.garbage > 0))

let test_cluster_total_poisoning_degrades () =
  (* Every worker (and every respawn) crashes on its first job: retries
     exhaust and the batch degrades to in-process — same bytes. *)
  let plan =
    [
      { Fault.worker = 0; job = 0; kind = Fault.Crash };
      { Fault.worker = 1; job = 0; kind = Fault.Crash };
    ]
  in
  let jobs = [ resolve "PCR" ] in
  with_cluster ~plan ~timeout:5.0 (fun cluster ->
      check_payloads "poisoned fleet = in-process" jobs
        (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check bool) "degraded" true
        (s.Mfb_cluster.Dispatcher.degraded > 0))

let test_cluster_oversized_reply_is_garbage () =
  (* one oversized reply is one garbage fault; the job then degrades to
     the in-process bytes *)
  let jobs = [ resolve "PCR" ] in
  let cluster =
    Cluster.create
      {
        (Cluster.default_config ~worker_argv:(fun _ -> oversized_then_ok)
           ~size:1)
        with
        dispatch =
          {
            Mfb_cluster.Dispatcher.default_config with
            timeout = 10.0;
            max_retries = 0;
            heartbeat = false;
          };
      }
  in
  Fun.protect
    ~finally:(fun () -> Cluster.stop cluster)
    (fun () ->
      check_payloads "oversized reply = in-process" jobs
        (Cluster.dispatch cluster jobs);
      let s = Cluster.stats cluster in
      Alcotest.(check int) "one garbage fault" 1
        s.Mfb_cluster.Dispatcher.garbage;
      Alcotest.(check int) "degraded" 1 s.Mfb_cluster.Dispatcher.degraded)

let test_cluster_stats_json_shape () =
  with_cluster ~size:1 (fun cluster ->
      ignore (Cluster.dispatch cluster [ resolve "PCR" ]);
      let server =
        Server.create
          { Server.default_config with
            extra_series = Some (fun () -> Cluster.series cluster) }
      in
      match Json.member "cluster" (Testkit.stats server) with
      | Some (Json.Obj fields) ->
        List.iter
          (fun k ->
            Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k fields))
          [ "fleet"; "respawns"; "dispatched"; "retries"; "degraded";
            "crashes"; "timeouts"; "garbage"; "heartbeat_failures"; "slots" ];
        (match List.assoc "slots" fields with
         | Json.List [ Json.Obj slot ] ->
           List.iter
             (fun k ->
               Alcotest.(check bool) ("slot has " ^ k) true
                 (List.mem_assoc k slot))
             [ "slot"; "respawns"; "consecutive_failures"; "ok";
               "last_outcome"; "reply_bytes" ];
           Alcotest.(check bool) "slot 0 answered" true
             (List.assoc "last_outcome" slot = Json.String "ok")
         | _ -> Alcotest.fail "slots must be a one-element list")
      | _ -> Alcotest.fail "the cluster section must be an object")

let test_cluster_ships_worker_spans () =
  (* With a sink installed on the supervisor side, every dispatched job
     asks its worker to trace; the reply carries the worker's span tree
     and the dispatch result records the answering slot. *)
  let jobs = [ resolve "PCR"; resolve ~seed:5 "IVD" ] in
  Test_util.with_fake_sink (fun _sink ->
      with_cluster ~size:1 (fun cluster ->
          let results = Cluster.dispatch cluster jobs in
          Alcotest.(check int) "one result per job" 2 (List.length results);
          List.iter
            (fun r ->
              Alcotest.(check bool) "answering slot recorded" true
                (r.Server.d_slot = Some 0);
              Alcotest.(check int) "first attempt" 1 r.Server.d_attempts;
              (* the worker's forest holds the request root plus any
                 pool-domain collectors its flow run spawned *)
              match
                List.find_opt
                  (fun n -> n.Telemetry.n_name = "request")
                  r.Server.d_spans
              with
              | Some root ->
                Alcotest.(check bool) "span args carry trace ctx" true
                  (List.mem_assoc "ctx" root.Telemetry.n_args)
              | None ->
                Alcotest.failf "no request root among %d worker spans"
                  (List.length r.Server.d_spans))
            results));
  (* without a sink the wire carries no trace and no spans come back *)
  with_cluster ~size:1 (fun cluster ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "no spans without a sink" true
            (r.Server.d_spans = []))
        (Cluster.dispatch cluster jobs))

(* --- the qcheck byte-identity property --- *)

let batch_gen =
  QCheck2.Gen.(
    list_size (1 -- 4) (pair (oneofl [ "PCR"; "IVD" ]) (0 -- 5)))

(* Slot 0's first three jobs, each faulty with probability 1/2, the kind
   uniform over the five. *)
let plan_gen =
  QCheck2.Gen.(
    map
      (fun kinds ->
        List.filter_map Fun.id
          (List.mapi
             (fun job ->
               Option.map (fun kind -> { Fault.worker = 0; job; kind }))
             kinds))
      (list_repeat 3
         (option ~ratio:0.5
            (oneofl Fault.[ Crash; Stall; Garbage; Truncate; Slow 0.05 ]))))

let qtest_cluster =
  (* For any job batch and any seeded fault schedule on half the fleet
     (slot 0 of 2; slot 0 always crashes on its first job so every run
     provably exercises recovery), payloads are byte-identical to
     in-process synthesis with a trace sink installed, and the faults
     are visible in the fleet's counters. *)
  Test_util.qtest ~count:4 "fleet byte-identity under seeded faults"
    QCheck2.Gen.(pair batch_gen plan_gen)
    (fun (batch, drawn) ->
      let jobs = List.map (fun (b, s) -> resolve ~seed:s b) batch in
      let plan = { Fault.worker = 0; job = 0; kind = Fault.Crash } :: drawn in
      Test_util.with_fake_sink (fun _sink ->
          with_cluster ~plan ~timeout:5.0 (fun cluster ->
              let results = Cluster.dispatch cluster jobs in
              let expected = List.map Server.run_job jobs in
              let identical =
                List.map (fun r -> payload_string r.Server.d_payload) results
                = List.map payload_string expected
              in
              let s = Cluster.stats cluster in
              let counters_moved =
                s.Mfb_cluster.Dispatcher.crashes > 0
                && s.Mfb_cluster.Dispatcher.retries > 0
                && respawns cluster > 0
              in
              identical && counters_moved)))

let suites =
  [
    ( "cluster.fault",
      [
        Alcotest.test_case "plan JSON round-trip" `Quick
          test_fault_json_round_trip;
        Alcotest.test_case "plan file round-trip" `Quick
          test_fault_file_round_trip;
        Alcotest.test_case "lookup first-match" `Quick test_fault_lookup;
      ] );
    ( "cluster.worker",
      [
        Alcotest.test_case "submit answer = in-process" `Quick
          test_worker_answers_submit;
        Alcotest.test_case "protocol surface" `Quick
          test_worker_protocol_surface;
        Alcotest.test_case "garbage fault then recovery" `Quick
          test_worker_garbage_fault;
        Alcotest.test_case "slow fault answers normally" `Quick
          test_worker_slow_fault_answers_normally;
        Alcotest.test_case "oversized line answered like serve" `Quick
          test_worker_oversized_line_like_serve;
        Alcotest.test_case "closed reply pipe is a clean exit" `Quick
          test_worker_closed_reply_pipe_exits_cleanly;
      ] );
    ( "cluster.proc",
      [
        Alcotest.test_case "echo, ping, EOF" `Quick
          test_worker_proc_echo_and_eof;
        Alcotest.test_case "recv deadline" `Quick test_worker_proc_timeout;
        Alcotest.test_case "ping a real worker" `Quick
          test_worker_proc_ping_real_worker;
        Alcotest.test_case "oversized reply reported once" `Quick
          test_worker_proc_oversized_reply;
      ] );
    ( "cluster.supervisor",
      [
        Alcotest.test_case "respawn with capped backoff" `Quick
          test_supervisor_respawns_with_backoff;
        Alcotest.test_case "stop is final" `Quick test_supervisor_stop_is_final;
      ] );
    ( "cluster.dispatch",
      [
        Alcotest.test_case "clean fleet matches in-process" `Quick
          test_cluster_clean_dispatch;
        Alcotest.test_case "a failing job keeps its worker" `Quick
          test_cluster_failing_job_keeps_workers;
        Alcotest.test_case "chaos recovery is byte-identical" `Quick
          test_cluster_chaos_recovery;
        Alcotest.test_case "stall hits the deadline" `Quick
          test_cluster_stall_hits_deadline;
        Alcotest.test_case "truncate reads as garbage" `Quick
          test_cluster_truncate_reads_as_garbage;
        Alcotest.test_case "total poisoning degrades" `Quick
          test_cluster_total_poisoning_degrades;
        Alcotest.test_case "oversized reply is one garbage fault" `Quick
          test_cluster_oversized_reply_is_garbage;
        Alcotest.test_case "stats json shape" `Quick
          test_cluster_stats_json_shape;
        Alcotest.test_case "worker spans ship back under a sink" `Quick
          test_cluster_ships_worker_spans;
        qtest_cluster;
      ] );
  ]
