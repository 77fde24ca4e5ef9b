(* Tests for the serving layer: content-addressed cache keys, the
   bounded priority queue, the wire protocol, and end-to-end server
   behaviour (cache transparency, admission control, determinism). *)

module Json = Mfb_util.Json
module Cache_key = Mfb_server.Cache_key
module Job_queue = Mfb_server.Job_queue
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Frame = Mfb_net.Frame
module Listener = Mfb_net.Listener
module Config = Mfb_core.Config
module Allocation = Mfb_component.Allocation

let qtest = Test_util.qtest

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let parse_assay text =
  match Mfb_bioassay.Assay_file.parse text with
  | Ok g -> g
  | Error e ->
    Alcotest.failf "assay parse: %a" Mfb_bioassay.Assay_file.pp_error e

(* --- cache-key canonicalization --- *)

(* One structural graph, five textual spellings. *)
let base_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

(* Same graph: comments, blank lines, tabs-as-spaces, shuffled line
   order. *)
let messy_assay =
  "# a comment\n\
   assay \"t\"\n\
   fluid b 1e-6\n\
   fluid a 4e-7\n\
   \n\
   edge 1 2\n\
   op 2   detect   3   a    # trailing comment\n\
   op 0 mix 5 a\n\
   \n\
   edge 0 1\n\
   op 1 heat 4 b\n"

(* Same graph with the dense operation ids permuted 0->2, 1->0, 2->1:
   the op named 2 is now the mix, edges follow the relabelling. *)
let relabelled_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 2 mix 5 a\n\
   op 0 heat 4 b\n\
   op 1 detect 3 a\n\
   edge 2 0\n\
   edge 0 1\n"

let diffusion_assay =
  "assay \"t\"\n\
   fluid a 5e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

let duration_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 6 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 1 2\n"

let structure_assay =
  "assay \"t\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 detect 3 a\n\
   edge 0 1\n\
   edge 0 2\n"

let key_of ?(flow = "ours") ?(config = Config.default) ?allocation text =
  let graph = parse_assay text in
  let allocation =
    match allocation with
    | Some a -> a
    | None -> Allocation.minimal_for (parse_assay base_assay)
  in
  Cache_key.make ~flow ~config ~graph ~allocation ()

let test_key_textual_invariance () =
  let base = key_of base_assay in
  Alcotest.(check bool)
    "whitespace/comments/line order" true
    (Cache_key.equal base (key_of messy_assay));
  Alcotest.(check bool)
    "op-id relabelling" true
    (Cache_key.equal base (key_of relabelled_assay))

let test_key_content_sensitivity () =
  let base = key_of base_assay in
  let differs name k =
    Alcotest.(check bool) name false (Cache_key.equal base k)
  in
  differs "diffusion coefficient" (key_of diffusion_assay);
  differs "op duration" (key_of duration_assay);
  differs "graph structure" (key_of structure_assay);
  differs "flow" (key_of ~flow:"ba" base_assay);
  differs "allocation"
    (key_of ~allocation:(Allocation.of_vector (2, 1, 0, 1)) base_assay)

let test_key_config_sensitivity () =
  let base = key_of base_assay in
  let differs name config =
    Alcotest.(check bool) name false
      (Cache_key.equal base (key_of ~config base_assay))
  in
  differs "tc" { Config.default with tc = 3.0 };
  differs "we" { Config.default with we = 11.0 };
  differs "beta" { Config.default with beta = 0.5 };
  differs "gamma" { Config.default with gamma = 0.5 };
  differs "seed" { Config.default with seed = 43 };
  differs "sa_restarts" { Config.default with sa_restarts = 2 };
  differs "sa params"
    {
      Config.default with
      sa = { Config.default.sa with Mfb_place.Annealer.i_max = 151 };
    };
  differs "backend" { Config.default with backend = Mfb_schedule.Portfolio.Exact };
  differs "exact_fuel" { Config.default with exact_fuel = 1_000 }

let test_key_backend_sensitivity () =
  (* Regression for the backend-blind key: every backend must key its
     own cache slot, or an exact request would replay a heuristic
     result. *)
  let key backend = key_of ~config:{ Config.default with backend } base_assay in
  let all = List.map key Mfb_schedule.Portfolio.all_backends in
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "backend %d vs %d" i j)
              false (Cache_key.equal ki kj))
        all)
    all

let test_key_hex_stable () =
  let k = key_of base_assay in
  Alcotest.(check string) "hex is hex" (Cache_key.to_hex k)
    (Cache_key.to_hex (key_of messy_assay));
  Alcotest.(check int) "16 nibbles" 16 (String.length (Cache_key.to_hex k))

(* --- job queue --- *)

let submit_ok q ~now ~id ~priority ?deadline payload =
  match Job_queue.submit q ~now ~id ~priority ?deadline payload with
  | Job_queue.Admitted -> ()
  | Job_queue.Displaced _ -> Alcotest.failf "%s unexpectedly displaced" id
  | Job_queue.Refused r -> Alcotest.failf "%s refused: %s" id r

let ids items = List.map (fun (it : _ Job_queue.item) -> it.Job_queue.id) items

let test_queue_dispatch_order () =
  let q = Job_queue.create ~depth:8 () in
  submit_ok q ~now:0 ~id:"a" ~priority:0 ();
  submit_ok q ~now:0 ~id:"b" ~priority:5 ();
  submit_ok q ~now:0 ~id:"c" ~priority:0 ();
  submit_ok q ~now:0 ~id:"d" ~priority:5 ();
  Alcotest.(check (list string))
    "priority desc, FIFO within" [ "b"; "d"; "a"; "c" ]
    (ids (Job_queue.queued q));
  Alcotest.(check bool) "position of a" true (Job_queue.position q "a" = Some 2);
  Alcotest.(check bool) "absent id" true (Job_queue.position q "z" = None);
  let dispatched, expired = Job_queue.pop_batch q ~now:1 ~max:3 in
  Alcotest.(check (list string)) "batch" [ "b"; "d"; "a" ] (ids dispatched);
  Alcotest.(check int) "nothing expired" 0 (List.length expired);
  Alcotest.(check int) "c remains" 1 (Job_queue.length q)

let test_queue_admission () =
  let q = Job_queue.create ~depth:2 () in
  submit_ok q ~now:0 ~id:"a" ~priority:1 ();
  submit_ok q ~now:0 ~id:"b" ~priority:0 ();
  (match Job_queue.submit q ~now:0 ~id:"c" ~priority:0 () with
   | Job_queue.Refused _ -> ()
   | _ -> Alcotest.fail "equal-priority submit to full queue must refuse");
  (match Job_queue.submit q ~now:0 ~id:"d" ~priority:2 () with
   | Job_queue.Displaced shed ->
     Alcotest.(check string) "weakest shed" "b" shed.Job_queue.id
   | _ -> Alcotest.fail "higher-priority submit must displace");
  Alcotest.(check (list string))
    "queue after displacement" [ "d"; "a" ]
    (ids (Job_queue.queued q));
  Alcotest.check_raises "depth < 1"
    (Invalid_argument "Job_queue.create: depth < 1") (fun () ->
      ignore (Job_queue.create ~depth:0 ()))

let test_queue_deadlines () =
  let q = Job_queue.create ~depth:8 () in
  submit_ok q ~now:0 ~id:"a" ~priority:0 ~deadline:0 ();
  submit_ok q ~now:0 ~id:"b" ~priority:0 ~deadline:5 ();
  submit_ok q ~now:0 ~id:"c" ~priority:0 ();
  let dispatched, expired = Job_queue.pop_batch q ~now:1 ~max:10 in
  Alcotest.(check (list string)) "a expired" [ "a" ] (ids expired);
  Alcotest.(check (list string)) "b,c dispatched" [ "b"; "c" ] (ids dispatched);
  (* expired jobs do not consume batch slots *)
  let q2 = Job_queue.create ~depth:8 () in
  submit_ok q2 ~now:0 ~id:"x" ~priority:9 ~deadline:0 ();
  submit_ok q2 ~now:0 ~id:"y" ~priority:0 ();
  let dispatched, expired = Job_queue.pop_batch q2 ~now:1 ~max:1 in
  Alcotest.(check (list string)) "x expired" [ "x" ] (ids expired);
  Alcotest.(check (list string)) "y still dispatched" [ "y" ] (ids dispatched)

(* --- protocol --- *)

let sample_requests =
  [
    P.Submit
      {
        id = "r1";
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = P.Benchmark "PCR";
        overrides = P.no_overrides;
        trace = None;
      };
    P.Submit
      {
        id = "r2";
        priority = 7;
        deadline = Some 3;
        flow = `Ba;
        spec = P.Assay { text = base_assay; alloc = Some (2, 1, 0, 1) };
        overrides = { P.no_overrides with o_seed = Some 9; o_tc = Some 1.5; o_sa_restarts = Some 2 };
        trace = Some "w0";
      };
    P.Submit
      {
        id = "r3";
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = P.Benchmark "PCR";
        overrides =
          { P.no_overrides with
            o_backend = Some Mfb_schedule.Portfolio.Portfolio };
        trace = None;
      };
    P.Status "r1";
    P.Result "r2";
    P.Repair
      {
        id = "p1";
        target = "r1";
        defects =
          [ Mfb_repair.Defect.Cell (3, 4); Mfb_repair.Defect.Component 2 ];
      };
    P.Stats;
    P.Stats_prom;
    P.Shutdown;
  ]

let sample_responses =
  [
    P.Submitted { id = "r1"; key = "00ff00ff00ff00ff" };
    P.Rejected { op = "submit"; id = "r9"; reason = "queue full" };
    P.Job_status { id = "r1"; state = "queued" };
    P.Job_result
      { id = "r2"; key = "00ff00ff00ff00ff"; result = Json.Obj [ ("x", Json.Int 1) ];
        spans = None };
    P.Job_result
      { id = "r4"; key = "00ff00ff00ff00ff"; result = Json.Obj [ ("x", Json.Int 1) ];
        spans = Some (Json.List [ Json.Obj [ ("name", Json.String "request") ] ]) };
    P.Repair_result
      {
        id = "p1";
        target = "r1";
        key = "00ff00ff00ff00ff";
        warm = true;
        report = Json.Obj [ ("survived", Json.Bool true) ];
      };
    P.Stats_text "# HELP dcsa_tick virtual tick\n";
    P.Stats_reply (Json.Obj [ ("submitted", Json.Int 3) ]);
    P.Goodbye Json.Null;
    P.Bad_request { id = None; message = "not json" };
    P.Bad_request { id = Some "r3"; message = "unknown id" };
  ]

let test_protocol_request_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (P.request_to_line r) true
        (P.request_of_line (P.request_to_line r) = Ok r))
    sample_requests

let test_protocol_response_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (P.response_to_line r) true
        (P.response_of_line (P.response_to_line r) = Ok r))
    sample_responses

let test_protocol_malformed () =
  let is_error = function Error _ -> true | Ok _ -> false in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true (is_error (P.request_of_line line)))
    [
      "nonsense";
      "{}";
      {|{"op":"fly"}|};
      {|{"op":"submit"}|};
      {|{"op":"submit","id":"a"}|};
      {|{"op":"submit","id":"a","benchmark":"PCR","assay":"x"}|};
      {|{"op":"submit","id":"a","benchmark":"PCR","priority":"high"}|};
      {|{"op":"repair","id":"p1"}|};
      {|{"op":"repair","id":"p1","target":"a","defects":[]}|};
      {|{"op":"repair","id":"p1","target":"a","defects":[{"kind":"hole"}]}|};
      {|{"op":"status"}|};
      {|[1,2]|};
    ]

(* --- server behaviour --- *)

let server ?(jobs = 1) ?(cache = 128) ?(depth = 64) ?(batch = 8)
    ?(repair_cache = 8) ?(similarity = false) ?dispatch ?extra_series
    ?access_log ?slow_threshold () =
  Server.create
    {
      Server.default_config with
      jobs;
      cache_capacity = cache;
      queue_depth = depth;
      batch;
      repair_cache;
      similarity;
      flow_config = Config.default;
      dispatch;
      extra_series;
      access_log;
      slow_threshold;
    }

let submit ?(priority = 0) ?deadline ?(seed = None) ~id spec =
  P.Submit
    {
      id;
      priority;
      deadline;
      flow = `Ours;
      spec;
      overrides = { P.no_overrides with P.o_seed = seed };
      trace = None;
    }

let pcr = P.Benchmark "PCR"

let test_server_cache_hit_identical () =
  let s = server () in
  (match Testkit.call_exn s (submit ~id:"a" pcr) with
   | P.Submitted _ -> ()
   | r -> Alcotest.failf "submit: %s" (P.response_to_line r));
  let r1 =
    match Testkit.call_exn s (P.Result "a") with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result: %s" (P.response_to_line r)
  in
  ignore (Testkit.call_exn s (submit ~id:"b" pcr));
  let r2 =
    match Testkit.call_exn s (P.Result "b") with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result: %s" (P.response_to_line r)
  in
  Alcotest.(check string) "byte-identical payload" r1 r2;
  match Testkit.call_exn s P.Stats with
  | P.Stats_reply stats ->
    let get = Testkit.stat stats in
    Alcotest.(check bool) "one compute" true
      (get [ "computed" ] = Some (Json.Int 1));
    Alcotest.(check bool) "one hit" true
      (get [ "cache"; "hits" ] = Some (Json.Int 1))
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

let test_server_backend_cache_not_shared () =
  (* Regression: before the backend reached Cache_key, an exact request
     structurally identical to a cached heuristic one replayed the
     heuristic's result.  Now it must miss, recompute, and answer with
     the (better) exact schedule. *)
  let s = server () in
  let submit_backend ~id o_backend =
    P.Submit
      {
        id;
        priority = 0;
        deadline = None;
        flow = `Ours;
        spec = pcr;
        overrides = { P.no_overrides with o_backend };
        trace = None;
      }
  in
  let key id req =
    match Testkit.call_exn s req with
    | P.Submitted { key; _ } -> key
    | r -> Alcotest.failf "submit %s: %s" id (P.response_to_line r)
  in
  let k_heur = key "h" (submit_backend ~id:"h" None) in
  let k_exact =
    key "e" (submit_backend ~id:"e" (Some Mfb_schedule.Portfolio.Exact))
  in
  Alcotest.(check bool) "distinct cache keys" false
    (String.equal k_heur k_exact);
  let result id =
    match Testkit.call_exn s (P.Result id) with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result %s: %s" id (P.response_to_line r)
  in
  let r_heur = result "h" in
  let r_exact = result "e" in
  Alcotest.(check bool) "exact payload is not the cached heuristic one"
    false
    (String.equal r_heur r_exact);
  match Testkit.call_exn s P.Stats with
  | P.Stats_reply stats ->
    let get = Testkit.stat stats in
    Alcotest.(check bool) "both requests computed" true
      (get [ "computed" ] = Some (Json.Int 2));
    Alcotest.(check bool) "no cross-backend cache hit" true
      (get [ "cache"; "hits" ] = Some (Json.Int 0))
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

let test_server_handle_line_hygiene () =
  let s = server () in
  Alcotest.(check bool) "blank" true (Server.handle_line s "   " = None);
  Alcotest.(check bool) "comment" true
    (Server.handle_line s "# warm-up note" = None);
  (match Server.handle_line s "{oops" with
   | Some line ->
     (match P.response_of_line line with
      | Ok (P.Bad_request _) -> ()
      | _ -> Alcotest.failf "expected error response, got %s" line)
   | None -> Alcotest.fail "malformed line must produce a response");
  match Server.handle_line s {|{"op":"shutdown"}|} with
  | Some _ -> Alcotest.(check bool) "stopping" true (Server.shutting_down s)
  | None -> Alcotest.fail "shutdown must answer"

let test_server_rejections () =
  let s = server () in
  (match Testkit.call_exn s (submit ~id:"a" (P.Benchmark "NOPE")) with
   | P.Rejected { reason; _ } ->
     Alcotest.(check bool) "reason names benchmark" true
       (contains ~sub:"NOPE" reason)
   | r -> Alcotest.failf "unknown benchmark: %s" (P.response_to_line r));
  ignore (Testkit.call_exn s (submit ~id:"dup" pcr));
  (match Testkit.call_exn s (submit ~id:"dup" pcr) with
   | P.Rejected { reason = "duplicate id"; _ } -> ()
   | r -> Alcotest.failf "duplicate id: %s" (P.response_to_line r));
  (match Testkit.call_exn s (P.Result "ghost") with
   | P.Bad_request { id = Some "ghost"; _ } -> ()
   | r -> Alcotest.failf "unknown result: %s" (P.response_to_line r));
  match Testkit.call_exn s (P.Status "ghost") with
  | P.Bad_request _ -> ()
  | r -> Alcotest.failf "unknown status: %s" (P.response_to_line r)

let test_server_admission_and_shedding () =
  (* batch larger than anything we queue: dispatch only on demand *)
  let s = server ~depth:2 ~batch:50 () in
  let seed n = Some n in
  ignore (Testkit.call_exn s (submit ~id:"a" ~seed:(seed 1) pcr));
  ignore (Testkit.call_exn s (submit ~id:"b" ~seed:(seed 2) pcr));
  (match Testkit.call_exn s (submit ~id:"c" ~seed:(seed 3) pcr) with
   | P.Rejected { op = "submit"; id = "c"; _ } -> ()
   | r -> Alcotest.failf "overflow submit: %s" (P.response_to_line r));
  (match Testkit.call_exn s (submit ~id:"d" ~priority:3 ~seed:(seed 4) pcr) with
   | P.Submitted { id = "d"; _ } -> ()
   | r -> Alcotest.failf "priority submit: %s" (P.response_to_line r));
  (* "b" (lowest priority, latest) was displaced to admit "d" *)
  (match Testkit.call_exn s (P.Status "b") with
   | P.Job_status { state = "shed"; _ } -> ()
   | r -> Alcotest.failf "displaced status: %s" (P.response_to_line r));
  (match Testkit.call_exn s (P.Result "b") with
   | P.Rejected { op = "result"; id = "b"; reason } ->
     Alcotest.(check bool) "reason mentions displacement" true
       (contains ~sub:"displaced" reason)
   | r -> Alcotest.failf "displaced result: %s" (P.response_to_line r));
  (match Testkit.call_exn s (P.Status "a") with
   | P.Job_status { state = "queued"; _ } -> ()
   | r -> Alcotest.failf "queued status: %s" (P.response_to_line r));
  (match Testkit.call_exn s (P.Result "a") with
   | P.Job_result _ -> ()
   | r -> Alcotest.failf "queued result: %s" (P.response_to_line r));
  match Testkit.call_exn s (P.Status "a") with
  | P.Job_status { state = "done"; _ } -> ()
  | r -> Alcotest.failf "done status: %s" (P.response_to_line r)

let test_server_deadline_shed () =
  let s = server ~batch:3 () in
  ignore (Testkit.call_exn s (submit ~id:"a" ~seed:(Some 1) pcr));
  ignore (Testkit.call_exn s (submit ~id:"b" ~deadline:0 ~seed:(Some 2) pcr));
  (* third submission fills the batch and triggers dispatch at tick 1,
     past b's deadline of tick 0 *)
  ignore (Testkit.call_exn s (submit ~id:"c" ~seed:(Some 3) pcr));
  (match Testkit.call_exn s (P.Status "b") with
   | P.Job_status { state = "shed"; _ } -> ()
   | r -> Alcotest.failf "deadline status: %s" (P.response_to_line r));
  (match Testkit.call_exn s (P.Result "b") with
   | P.Rejected { reason; _ } ->
     Alcotest.(check bool) "reason mentions deadline" true
       (contains ~sub:"deadline" reason)
   | r -> Alcotest.failf "deadline result: %s" (P.response_to_line r));
  List.iter
    (fun id ->
      match Testkit.call_exn s (P.Result id) with
      | P.Job_result _ -> ()
      | r -> Alcotest.failf "%s result: %s" id (P.response_to_line r))
    [ "a"; "c" ]

(* --- bounded line reading --- *)

let with_input text f =
  let path = Filename.temp_file "bounded" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      In_channel.with_open_text path f)

(* Frame.read over a channel: the reader behind stdio serve and the
   fleet worker's stdin *)
let read_all ?max_bytes ic =
  let fr = Frame.create ?max_bytes () in
  let rec go acc =
    match Frame.read fr ic with
    | Some ev -> go (ev :: acc)
    | None -> List.rev acc
  in
  go []

let test_bounded_reader_lines () =
  with_input "alpha\nbeta\n" (fun ic ->
      Alcotest.(check bool) "two lines, then eof" true
        (read_all ic = [ Frame.Line "alpha"; Frame.Line "beta" ]));
  with_input "" (fun ic ->
      Alcotest.(check bool) "empty input" true (read_all ic = []))

let test_bounded_reader_partial_line_at_eof () =
  with_input "complete\npartial" (fun ic ->
      Alcotest.(check bool) "partial still surfaces, then eof" true
        (read_all ic = [ Frame.Line "complete"; Frame.Line "partial" ]))

let test_bounded_reader_oversized_resyncs () =
  let big = String.make 100 'x' in
  with_input (big ^ "\nnext\n") (fun ic ->
      (* the oversized line is consumed whole: its length is reported
         and the following line is read intact *)
      Alcotest.(check bool) "oversized with length, then resynced" true
        (read_all ~max_bytes:10 ic = [ Frame.Oversized 100; Frame.Line "next" ]));
  (* a line of exactly max_bytes is not oversized *)
  with_input "1234567890\n" (fun ic ->
      Alcotest.(check bool) "at the cap" true
        (read_all ~max_bytes:10 ic = [ Frame.Line "1234567890" ]));
  (* oversized at EOF without a trailing newline still reports *)
  with_input (String.make 20 'y') (fun ic ->
      Alcotest.(check bool) "oversized at eof" true
        (read_all ~max_bytes:10 ic = [ Frame.Oversized 20 ]))

let test_serve_answers_oversized_line () =
  (* end to end: an oversized request line gets a structured error and
     the server keeps serving the next request *)
  let s = server () in
  let big =
    Printf.sprintf {|{"op":"submit","id":"big","assay":"%s"}|}
      (String.make (P.default_max_line_bytes + 64) 'a')
  in
  let script = big ^ "\n" ^ {|{"op":"stats"}|} ^ "\n{\"op\":\"shutdown\"}\n" in
  let out_path = Filename.temp_file "serve_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_path)
    (fun () ->
      with_input script (fun input ->
          Out_channel.with_open_text out_path (fun output ->
              Listener.run_channels
                ~stop:(fun () -> Server.shutting_down s)
                (Server.handle_line s) input output));
      let lines =
        In_channel.with_open_text out_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      match lines with
      | [ err; stats; goodbye ] ->
        (match P.response_of_line err with
         | Ok (P.Bad_request { message; _ }) ->
           Alcotest.(check string) "says too long"
             (Printf.sprintf
                "input line too long: %d bytes exceeds the 1048576-byte limit"
                (String.length big))
             message
         | _ -> Alcotest.fail "expected a bad-request error");
        (match P.response_of_line stats with
         | Ok (P.Stats_reply _) -> ()
         | _ -> Alcotest.fail "server must keep serving after oversized");
        (match P.response_of_line goodbye with
         | Ok (P.Goodbye _) -> ()
         | _ -> Alcotest.fail "expected goodbye")
      | lines -> Alcotest.failf "expected 3 lines, got %d" (List.length lines))

(* --- shutdown drains in-flight jobs --- *)

let test_shutdown_drains_queue () =
  let s = server ~batch:8 () in
  (* three distinct jobs, below the batch threshold: all still queued *)
  List.iter
    (fun (id, seed) ->
      match Testkit.call_exn s (submit ~id ~seed:(Some seed) pcr) with
      | P.Submitted _ -> ()
      | r -> Alcotest.failf "submit: %s" (P.response_to_line r))
    [ ("a", 1); ("b", 2); ("c", 3) ];
  (match Testkit.call_exn s P.Shutdown with
   | P.Goodbye stats ->
     let member path =
       match Json.member path stats with
       | Some v -> v
       | None -> Alcotest.failf "missing stats field %s" path
     in
     (match member "queue" with
      | Json.Obj q ->
        Alcotest.(check bool) "queue drained" true
          (List.assoc_opt "queued" q = Some (Json.Int 0))
      | _ -> Alcotest.fail "queue stats not an object");
     Alcotest.(check bool) "all three computed" true
       (member "computed" = Json.Int 3)
   | r -> Alcotest.failf "shutdown: %s" (P.response_to_line r));
  (* the drained results are actually there *)
  List.iter
    (fun id ->
      match Testkit.call_exn s (P.Result id) with
      | P.Job_result _ -> ()
      | r -> Alcotest.failf "%s after drain: %s" id (P.response_to_line r))
    [ "a"; "b"; "c" ]

(* --- dispatch and extra_series hooks --- *)

let test_dispatch_hook_is_answer_transparent () =
  let calls = ref 0 in
  let dispatch jobs =
    incr calls;
    List.map
      (fun job ->
        {
          Server.d_payload = Server.run_job job;
          d_slot = Some 0;
          d_attempts = 1;
          d_spans = [];
        })
      jobs
  in
  let lines =
    List.map P.request_to_line
      [
        submit ~id:"h0" ~seed:(Some 0) pcr;
        submit ~id:"h1" ~seed:(Some 1) pcr;
        submit ~id:"h2" ~seed:(Some 0) pcr;
        P.Result "h0"; P.Result "h1"; P.Result "h2";
      ]
  in
  let run_script s lines = List.filter_map (Server.handle_line s) lines in
  let hooked = run_script (server ~batch:2 ~dispatch ()) lines in
  let plain = run_script (server ~batch:2 ()) lines in
  Alcotest.(check (list string)) "hooked = in-process" plain hooked;
  Alcotest.(check bool) "hook ran" true (!calls > 0)

let test_extra_stats_appended () =
  let extra_series () =
    [ { Server.path = [ "cluster"; "fleet" ]; name = ""; labels = [];
        help = ""; value = Server.Info (Json.Int 2) } ]
  in
  let s = server ~extra_series () in
  (match Server.handle s P.Stats with
   | P.Stats_reply stats ->
     Alcotest.(check bool) "extra field present" true
       (Json.member "cluster" stats
       = Some (Json.Obj [ ("fleet", Json.Int 2) ]))
   | r -> Alcotest.failf "stats: %s" (P.response_to_line r));
  (* without the hook the stats payload has no such field *)
  match Server.handle (server ()) P.Stats with
  | P.Stats_reply stats ->
    Alcotest.(check bool) "absent by default" true
      (Json.member "cluster" stats = None)
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

(* --- observability: access log, prometheus exposition, goodbye totals --- *)

let with_access_log ?slow_threshold ~jobs lines =
  let path = Filename.temp_file "access" ".jsonl" in
  let oc = open_out path in
  let s = server ~jobs ~batch:4 ~access_log:oc ?slow_threshold () in
  let responses = List.filter_map (Server.handle_line s) lines in
  ignore (Server.handle s P.Shutdown);
  close_out oc;
  let log = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (responses, log)

let obs_script =
  List.map P.request_to_line
    [
      submit ~id:"a" ~seed:(Some 1) pcr;
      submit ~id:"b" ~seed:(Some 2) pcr;
      submit ~id:"c" ~seed:(Some 1) pcr;
      (* duplicate id: rejected, still logged *)
      submit ~id:"a" ~seed:(Some 3) pcr;
      P.Result "a"; P.Result "b"; P.Result "c";
    ]

let test_access_log_deterministic_across_jobs () =
  let r1, log1 = with_access_log ~jobs:1 obs_script in
  let r2, log2 = with_access_log ~jobs:2 obs_script in
  Alcotest.(check (list string)) "responses jobs=1 = jobs=2" r1 r2;
  Alcotest.(check string) "access log bytes jobs=1 = jobs=2" log1 log2;
  let lines = String.split_on_char '\n' (String.trim log1) in
  Alcotest.(check int) "one record per submit" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok doc ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (Printf.sprintf "field %s present" k)
              true
              (Json.member k doc <> None))
          [ "rid"; "id"; "key"; "backend"; "outcome"; "queue_ticks";
            "compute_ticks"; "total_ticks" ]
      | Error e -> Alcotest.failf "access record not JSON (%s): %s" e line)
    lines

let test_duplicate_id_keeps_original_record () =
  let dup =
    [ {|{"op":"submit","id":"a","benchmark":"PCR"}|};
      {|{"op":"submit","id":"a","benchmark":"PCR"}|};
      {|{"op":"result","id":"a"}|} ]
  in
  let _, log = with_access_log ~jobs:1 dup in
  Alcotest.(check bool) "a's record keeps its request id" true
    (contains ~sub:{|{"rid":"r000001","id":"a","key":|} log);
  Alcotest.(check bool) "no request loses its id" false
    (contains ~sub:{|"rid":"-"|} log);
  (* under the wall clock a lost submit time read as 0 made the latency
     the whole epoch *)
  let s = Server.create { Server.default_config with clock = `Wall } in
  List.iter (fun line -> ignore (Server.handle_line s line)) dup;
  let stats = Testkit.stats s in
  Alcotest.(check int) "one latency" 1
    (Testkit.stat_int stats [ "latency"; "count" ]);
  Alcotest.(check bool) "latency below a minute" true
    (Testkit.stat_float stats [ "latency"; "max" ] < 60_000.)

let test_access_log_slow_spans () =
  (* threshold 0: every request is "slow", so every computed/hit record
     embeds its span tree; rejected records never do *)
  let _, log = with_access_log ~slow_threshold:0.0 ~jobs:1 obs_script in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok doc ->
        let outcome = Json.member "outcome" doc in
        let has_spans = Json.member "spans" doc <> None in
        if outcome = Some (Json.String "rejected") then
          Alcotest.(check bool) "rejected: no spans" false has_spans
        else Alcotest.(check bool) "slow record has spans" true has_spans
      | Error e -> Alcotest.failf "access record not JSON: %s" e)
    (String.split_on_char '\n' (String.trim log))

let test_prometheus_exposition () =
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  ignore (Testkit.call_exn s (P.Result "a"));
  ignore (Testkit.call_exn s (submit ~id:"b" pcr));
  ignore (Testkit.call_exn s (P.Result "b"));
  match Testkit.call_exn s P.Stats_prom with
  | P.Stats_text text ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
          (let n = String.length sub in
           let rec scan i =
             i + n <= String.length text
             && (String.sub text i n = sub || scan (i + 1))
           in
           scan 0))
      [
        "# TYPE dcsa_submitted_total counter";
        "dcsa_submitted_total 2";
        "dcsa_cache_hits_total 1";
        "dcsa_request_latency_bucket{le=\"+Inf\"} 2";
        "dcsa_request_latency_count 2";
        "dcsa_queue_wait_ticks_count 1";
      ]
  | r -> Alcotest.failf "stats_prom: %s" (P.response_to_line r)

(* Every sample line belongs to a metric whose # HELP and # TYPE lines
   appear exactly once, before its first sample; a histogram's
   _bucket/_sum/_count samples belong to the histogram's name. *)
let check_exposition text =
  let lines =
    Array.of_list (List.filter (( <> ) "") (String.split_on_char '\n' text))
  in
  let header kind line =
    match String.split_on_char ' ' line with
    | "#" :: k :: name :: _ when k = kind -> Some name
    | _ -> None
  in
  let positions kind m =
    List.filter
      (fun i -> header kind lines.(i) = Some m)
      (List.init (Array.length lines) Fun.id)
  in
  let typed m = positions "TYPE" m <> [] in
  Array.iteri
    (fun i line ->
      if line.[0] <> '#' then begin
        let name =
          List.hd
            (String.split_on_char ' '
               (List.hd (String.split_on_char '{' line)))
        in
        let metric =
          if typed name then name
          else
            match
              List.find_opt
                (fun s ->
                  Filename.check_suffix name s
                  && typed (Filename.chop_suffix name s))
                [ "_bucket"; "_sum"; "_count" ]
            with
            | Some s -> Filename.chop_suffix name s
            | None -> Alcotest.failf "sample without a # TYPE: %s" line
        in
        List.iter
          (fun kind ->
            match positions kind metric with
            | [ j ] when j < i -> ()
            | _ ->
              Alcotest.failf "%s needs one # %s before its samples" metric
                kind)
          [ "HELP"; "TYPE" ]
      end)
    lines

let edit_submit ~id heat =
  Printf.sprintf
    {|{"op":"submit","id":"%s","assay":"assay \"edit\"\nfluid a 4e-7\nfluid b 1e-6\nop 0 mix 5 a\nop 1 heat %d b\nop 2 mix 6 a\nedge 0 1\nedge 1 2","alloc":[2,2,0,0]}|}
    id heat

let prometheus_text s =
  match Server.handle s P.Stats_prom with
  | P.Stats_text text -> text
  | r -> Alcotest.failf "stats_prom: %s" (P.response_to_line r)

let test_prometheus_one_header_per_metric () =
  let s = server ~similarity:true () in
  let replies =
    List.filter_map (Server.handle_line s)
      [ edit_submit ~id:"e0" 4; {|{"op":"result","id":"e0"}|};
        edit_submit ~id:"e1" 6; {|{"op":"result","id":"e1"}|};
        {|{"op":"submit","id":"r1","benchmark":"PCR"}|};
        {|{"op":"repair","id":"p1","target":"r1","defects":[{"kind":"cell","x":5,"y":6}]}|} ]
  in
  Alcotest.(check bool) "near-hit and repair ran" true
    (Server.near_hit_counts s = (1, 0)
    && contains ~sub:{|"op":"repair","id":"p1"|} (List.nth replies 5));
  let text = prometheus_text s in
  check_exposition text;
  Alcotest.(check bool) "near and repair series present" true
    (contains ~sub:"# TYPE dcsa_warm_latency histogram" text
    && contains ~sub:"# TYPE dcsa_repair_latency histogram" text);
  (* a hook adding two label permutations of one histogram *)
  let h = Mfb_util.Histogram.create () in
  Mfb_util.Histogram.add h 3.0;
  let extra_series () =
    List.map
      (fun slot ->
        { Server.path = []; name = "dcsa_hook_bytes";
          labels = [ ("slot", slot) ]; help = "hook bytes";
          value = Server.Histogram h })
      [ "0"; "1" ]
  in
  let text = prometheus_text (server ~extra_series ()) in
  check_exposition text;
  Alcotest.(check bool) "both hook series present" true
    (contains ~sub:{|dcsa_hook_bytes_count{slot="0"} 1|} text
    && contains ~sub:{|dcsa_hook_bytes_count{slot="1"} 1|} text)

let test_goodbye_totals () =
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  ignore (Testkit.call_exn s (P.Result "a"));
  ignore (Testkit.call_exn s (submit ~id:"b" pcr));
  match Testkit.call_exn s P.Shutdown with
  | P.Goodbye stats ->
    let totals =
      match Json.member "totals" stats with
      | Some t -> t
      | None -> Alcotest.fail "goodbye missing totals"
    in
    let get = Testkit.stat totals in
    Alcotest.(check bool) "cache hits total" true
      (get [ "cache"; "hits" ] = Some (Json.Int 1));
    Alcotest.(check bool) "queue submitted total" true
      (get [ "queue"; "submitted" ] = Some (Json.Int 2));
    Alcotest.(check bool) "cluster dispatched total" true
      (get [ "cluster"; "dispatched" ] = Some (Json.Int 0))
  | r -> Alcotest.failf "shutdown: %s" (P.response_to_line r)

let test_latency_histogram_tracks_requests () =
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  ignore (Testkit.call_exn s (P.Result "a"));
  ignore (Testkit.call_exn s (submit ~id:"b" pcr));
  ignore (Testkit.call_exn s (P.Result "b"));
  let stats = Testkit.stats s in
  let latency k = Testkit.stat_float stats [ "latency"; k ] in
  Alcotest.(check int) "two latencies" 2
    (Testkit.stat_int stats [ "latency"; "count" ]);
  (* virtual clock: the cache hit costs 0 ticks, the compute at least 1 *)
  Alcotest.(check (float 1e-9)) "min latency 0 ticks (hit)" 0.0
    (latency "min");
  Alcotest.(check bool) "max latency >= 1 tick (compute)" true
    (latency "max" >= 1.0)

let test_batch_duplicate_counts_once () =
  (* Both submits queue behind one cache miss each; the batch runs the
     key once and answers the duplicate from that run, so the cache
     counts two misses and no hit: one count per admission. *)
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  ignore (Testkit.call_exn s (submit ~id:"b" pcr));
  let payload id =
    match Testkit.call_exn s (P.Result id) with
    | P.Job_result { result; _ } -> Json.to_string result
    | r -> Alcotest.failf "result %s: %s" id (P.response_to_line r)
  in
  let b = payload "b" in
  Alcotest.(check string) "duplicate answered with its key's run" (payload "a")
    b;
  let stats = Testkit.stats s in
  Alcotest.(check (list int)) "submitted, computed, hits, misses" [ 2; 1; 0; 2 ]
    (List.map (Testkit.stat_int stats)
       [ [ "submitted" ]; [ "computed" ]; [ "cache"; "hits" ];
         [ "cache"; "misses" ] ])

(* A cache hit is served without synthesis, so it should allocate
   little: resolving the benchmark, the key, and the two replies.  At
   about 3,750 minor words a submit+result pair, the bound leaves room
   for noise but not for rebuilding the whole Table I suite on every
   lookup (about 27,000 words a pair). *)
let test_cache_hit_allocation () =
  let s = Server.create Server.default_config in
  let pair id =
    ( Printf.sprintf {|{"op":"submit","id":"%s","benchmark":"PCR"}|} id,
      Printf.sprintf {|{"op":"result","id":"%s"}|} id )
  in
  let serve (submit, result) =
    ignore (Server.handle_line s submit);
    Server.handle_line s result
  in
  ignore (serve (pair "warm-up"));
  let n = 1_000 in
  let lines = Array.init n (fun i -> pair (Printf.sprintf "hit%d" i)) in
  let results = Array.make n None in
  let before = Gc.minor_words () in
  Array.iteri (fun i p -> results.(i) <- serve p) lines;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Array.iter
    (function
      | Some r when String.starts_with ~prefix:{|{"ok":true,"op":"result"|} r
        -> ()
      | r -> Alcotest.failf "result: %s" (Option.value r ~default:"none"))
    results;
  let stats = Testkit.stats s in
  Alcotest.(check (list int)) "computed, hits" [ 1; n ]
    (List.map (Testkit.stat_int stats) [ [ "computed" ]; [ "cache"; "hits" ] ]);
  if words > 8_000. then
    Alcotest.failf "a cache-hit pair allocates %.0f minor words (limit 8,000)"
      words

(* The serving load script: seed 7, 240 PCR submits, each followed by
   its result, 90% of them repeats of 8 hot job seeds and the rest a
   fresh seed each.  A caching server must answer every request with
   the bytes of an uncached one, mostly from the cache, for at least 5x
   fewer syntheses; both latency histograms observe every request. *)
let load_script =
  let rng = Random.State.make [| 7 |] in
  let fresh = ref 0 in
  List.init 240 (fun _ ->
      if Random.State.float rng 1.0 < 0.9 then 1000 + Random.State.int rng 8
      else begin
        incr fresh;
        100_000 + !fresh
      end)

let replay_load_script ~cache =
  let s = server ~cache () in
  let payloads =
    List.mapi
      (fun i seed ->
        let id = Printf.sprintf "q%d" i in
        ignore (Testkit.call_exn s (submit ~seed:(Some seed) ~id pcr));
        match Testkit.call_exn s (P.Result id) with
        | P.Job_result { result; _ } -> Json.to_string result
        | r -> Alcotest.failf "result %s: %s" id (P.response_to_line r))
      load_script
  in
  (s, payloads)

let test_load_script () =
  let cached, cached_payloads = replay_load_script ~cache:128 in
  let uncached, uncached_payloads = replay_load_script ~cache:0 in
  Alcotest.(check (list string)) "payloads identical at cache 128 and 0"
    uncached_payloads cached_payloads;
  let stats = Testkit.stats cached in
  let hits = Testkit.stat_int stats [ "cache"; "hits" ]
  and misses = Testkit.stat_int stats [ "cache"; "misses" ] in
  Alcotest.(check bool)
    (Printf.sprintf "hit rate %d/%d >= 0.8" hits (hits + misses))
    true
    (float_of_int hits >= 0.8 *. float_of_int (hits + misses));
  List.iter
    (fun s ->
      let stats = Testkit.stats s in
      let q p = Testkit.stat_float stats [ "latency"; p ] in
      Alcotest.(check int) "every request observed" 240
        (Testkit.stat_int stats [ "latency"; "count" ]);
      Alcotest.(check bool) "p50 <= p95 <= p99" true
        (q "p50" <= q "p95" && q "p95" <= q "p99"))
    [ cached; uncached ];
  let computed s = Testkit.stat_int (Testkit.stats s) [ "computed" ] in
  Alcotest.(check bool)
    (Printf.sprintf "uncached computed %d >= 5 x cached %d" (computed uncached)
       (computed cached))
    true
    (computed uncached >= 5 * computed cached)

(* --- the repair op --- *)

module Defect = Mfb_repair.Defect

(* --- a failing job fails alone; client overrides are capped --- *)

let good_submit = {|{"op":"submit","id":"good","benchmark":"PCR"}|}

(* Three chained ops of 1e308 s pass admission, but their schedule
   overflows: synthesis raises on a non-finite interval. *)
let bad_submit =
  {|{"op":"submit","id":"bad","assay":"assay \"overflow\"\nfluid a 1e-6\nop 0 mix 1e308 a\nop 1 heat 1e308 a\nop 2 detect 1 a\nedge 0 1\nedge 1 2\n"}|}

let test_failing_job_fails_alone () =
  List.iter
    (fun jobs ->
      let clean, _ =
        with_access_log ~jobs [ good_submit; {|{"op":"result","id":"good"}|} ]
      in
      let mixed, log =
        with_access_log ~jobs
          [ good_submit; bad_submit; {|{"op":"result","id":"good"}|};
            {|{"op":"result","id":"bad"}|}; {|{"op":"status","id":"bad"}|};
            (* the good result was cached as usual *)
            {|{"op":"submit","id":"again","benchmark":"PCR"}|};
            {|{"op":"stats"}|} ]
      in
      let name what = Printf.sprintf "jobs=%d: %s" jobs what in
      Alcotest.(check string) (name "good payload unchanged by bad")
        (List.nth clean 1) (List.nth mixed 2);
      let failed = List.nth mixed 3 in
      Alcotest.(check bool) (name "bad answers a structured failure") true
        (contains ~sub:{|"ok":false,"op":"result","id":"bad"|} failed
        && contains ~sub:"synthesis failed: Invalid_argument" failed);
      Alcotest.(check string) (name "bad is shed")
        {|{"ok":true,"op":"status","id":"bad","state":"shed"}|}
        (List.nth mixed 4);
      Alcotest.(check bool) (name "good cached") true
        (contains ~sub:{|"hits":1|} (List.nth mixed 6));
      let records = String.split_on_char '\n' (String.trim log) in
      Alcotest.(check int) (name "every request logged") 3
        (List.length records);
      Alcotest.(check bool) (name "bad logged as shed with its reason") true
        (contains ~sub:{|"id":"bad","key":|} (List.nth records 1)
        && contains ~sub:{|"outcome":"shed","reason":"synthesis failed: |}
             (List.nth records 1)))
    [ 1; 2 ]

let test_sa_restarts_override_capped () =
  let s = server () in
  let submit_restarts restarts =
    Server.handle_line s
      (Printf.sprintf
         {|{"op":"submit","id":"r%d","benchmark":"PCR","sa_restarts":%d}|}
         restarts restarts)
  in
  Alcotest.(check (option string)) "10^8 restarts refused at submit"
    (Some
       {|{"ok":false,"op":"submit","id":"r100000000","reason":"sa_restarts 100000000 exceeds the limit of 64"}|})
    (submit_restarts 100_000_000);
  (match submit_restarts 64 with
   | Some line ->
     Alcotest.(check bool) "64 restarts admitted" true
       (contains ~sub:{|"ok":true|} line)
   | None -> Alcotest.fail "submit must answer");
  (match Server.handle s P.Stats with
   | P.Stats_reply stats ->
     Alcotest.(check bool) "counted as rejected" true
       (Json.member "rejected" stats = Some (Json.Int 1))
   | r -> Alcotest.failf "stats: %s" (P.response_to_line r));
  (* the operator's own setting is not a client override *)
  let operator =
    Server.create
      { Server.default_config with
        flow_config = { Config.default with sa_restarts = 100 } }
  in
  match Server.handle operator (submit ~id:"op" pcr) with
  | P.Submitted _ -> ()
  | r -> Alcotest.failf "operator restarts: %s" (P.response_to_line r)

(* A submit whose tc Config.validate refuses is answered with the reason
   and counted as rejected; nothing is computed. *)
let tc_rejected_at_submit ~id ~tc ~reason () =
  let s = server () in
  Alcotest.(check (option string)) (Printf.sprintf "tc %s refused at submit" tc)
    (Some
       (Printf.sprintf {|{"ok":false,"op":"submit","id":"%s","reason":"%s"}|}
          id reason))
    (Server.handle_line s
       (Printf.sprintf {|{"op":"submit","id":"%s","benchmark":"PCR","tc":%s}|}
          id tc));
  match Server.handle s P.Stats with
  | P.Stats_reply stats ->
    Alcotest.(check bool) "counted as rejected, nothing computed" true
      (Json.member "rejected" stats = Some (Json.Int 1)
      && Json.member "computed" stats = Some (Json.Int 0))
  | r -> Alcotest.failf "stats: %s" (P.response_to_line r)

let repair_reply = function
  | P.Repair_result { report; warm; _ } -> (Json.to_string report, warm)
  | r -> Alcotest.failf "repair: %s" (P.response_to_line r)

let test_server_repair_warm_cold_identical () =
  let run ~repair_cache =
    let s = server ~repair_cache () in
    ignore (Testkit.call_exn s (submit ~id:"a" pcr));
    ignore (Testkit.call_exn s (P.Result "a"));
    let report, warm =
      repair_reply
        (Testkit.call_exn s
           (P.Repair
              { id = "p1"; target = "a"; defects = [ Defect.Cell (0, 0) ] }))
    in
    (report, warm, s)
  in
  let r_warm, warm, s = run ~repair_cache:8 in
  let r_cold, cold, _ = run ~repair_cache:0 in
  Alcotest.(check bool) "retained full result => warm" true warm;
  Alcotest.(check bool) "no retention => cold" false cold;
  Alcotest.(check string) "report bytes independent of cache temperature"
    r_warm r_cold;
  (* the virtual clock prices the temperature: warm repairs cost 1 tick *)
  let stats = Testkit.stats s in
  Alcotest.(check int) "one repair latency" 1
    (Testkit.stat_int stats [ "repair"; "latency"; "count" ]);
  Alcotest.(check (float 1e-9)) "warm latency is 1 tick" 1.0
    (Testkit.stat_float stats [ "repair"; "latency"; "max" ]);
  (* stats gained the repair section *)
  match Testkit.stats s with
  | Json.Obj fields ->
    (match List.assoc_opt "repair" fields with
     | Some (Json.Obj rf) ->
       Alcotest.(check bool) "repairs total" true
         (List.assoc_opt "total" rf = Some (Json.Int 1));
       Alcotest.(check bool) "repairs warm" true
         (List.assoc_opt "warm" rf = Some (Json.Int 1))
     | _ -> Alcotest.fail "stats lost the repair section");
    Alcotest.(check bool) "prometheus repair series" true
      (contains ~sub:"dcsa_repair_latency" (prometheus_text s))
  | _ -> Alcotest.fail "stats is not an object"

let test_server_repair_jobs_invariant () =
  (* same script, different worker counts: repair report byte-identical *)
  let run jobs =
    let s = server ~jobs ~batch:2 () in
    ignore (Testkit.call_exn s (submit ~id:"a" ~seed:(Some 1) pcr));
    ignore (Testkit.call_exn s (submit ~id:"b" ~seed:(Some 2) pcr));
    ignore (Testkit.call_exn s (P.Result "a"));
    repair_reply
      (Testkit.call_exn s
         (P.Repair
            { id = "p1"; target = "a"; defects = [ Defect.Cell (1, 1) ] }))
  in
  Alcotest.(check bool) "jobs=1 = jobs=2" true (run 1 = run 2)

let test_server_repair_drains_queued_target () =
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  let _, warm =
    repair_reply
      (Testkit.call_exn s
         (P.Repair
            { id = "p1"; target = "a"; defects = [ Defect.Cell (0, 0) ] }))
  in
  Alcotest.(check bool) "forced the batch, then warm" true warm;
  match Testkit.call_exn s (P.Status "a") with
  | P.Job_status { state = "done"; _ } -> ()
  | r -> Alcotest.failf "target status: %s" (P.response_to_line r)

let test_server_repair_errors () =
  let s = server () in
  ignore (Testkit.call_exn s (submit ~id:"a" pcr));
  ignore (Testkit.call_exn s (P.Result "a"));
  (match
     Testkit.call_exn s
       (P.Repair
          { id = "p1"; target = "ghost"; defects = [ Defect.Cell (0, 0) ] })
   with
   | P.Bad_request { message; _ } ->
     Alcotest.(check bool) "unknown target" true
       (contains ~sub:"ghost" message)
   | r -> Alcotest.failf "unknown target: %s" (P.response_to_line r));
  (match
     Testkit.call_exn s
       (P.Repair { id = "a"; target = "a"; defects = [ Defect.Cell (0, 0) ] })
   with
   | P.Rejected { op = "repair"; reason = "duplicate id"; _ } -> ()
   | r -> Alcotest.failf "duplicate id: %s" (P.response_to_line r));
  (match
     Testkit.call_exn s
       (P.Repair
          { id = "p2"; target = "a"; defects = [ Defect.Cell (999, 999) ] })
   with
   | P.Rejected { op = "repair"; reason; _ } ->
     Alcotest.(check bool) "out-of-bounds cell named" true
       (contains ~sub:"999" reason)
   | r -> Alcotest.failf "invalid defect: %s" (P.response_to_line r));
  (* no repair succeeded, so the stats payload keeps its legacy shape *)
  (match Testkit.stats s with
   | Json.Obj fields ->
     Alcotest.(check bool) "no repair section" true
       (List.assoc_opt "repair" fields = None)
   | _ -> Alcotest.fail "stats is not an object");
  (* a refused repair leaves its id free for the corrected retry *)
  match
    Testkit.call_exn s
      (P.Repair { id = "p2"; target = "a"; defects = [ Defect.Cell (0, 0) ] })
  with
  | P.Repair_result { id = "p2"; _ } -> ()
  | r -> Alcotest.failf "corrected retry: %s" (P.response_to_line r)

(* --- determinism: cold jobs=1 ≡ warm ≡ jobs=2, enforced by qcheck --- *)

(* A script is a list of submissions drawn from a tiny seed pool (so
   repeats are likely) followed by a result request per id. *)
let script_gen =
  QCheck2.Gen.(
    list_size (int_range 1 6) (pair (int_bound 3) (int_bound 2)))

let script_lines prefix spec_seeds =
  let submits =
    List.mapi
      (fun i (seed, priority) ->
        P.request_to_line
          (submit
             ~id:(Printf.sprintf "%s%d" prefix i)
             ~priority ~seed:(Some seed) pcr))
      spec_seeds
  in
  let results =
    List.mapi
      (fun i _ ->
        P.request_to_line (P.Result (Printf.sprintf "%s%d" prefix i)))
      spec_seeds
  in
  submits @ results

let run_script s lines = List.filter_map (Server.handle_line s) lines

let prop_server_responses_invariant =
  qtest ~count:20 "cold jobs=1 = warm = jobs=2 responses" script_gen
    (fun spec_seeds ->
      let lines = script_lines "q" spec_seeds in
      let cold = run_script (server ~jobs:1 ~batch:4 ()) lines in
      let parallel = run_script (server ~jobs:2 ~batch:4 ()) lines in
      let warm_server = server ~jobs:1 ~batch:4 () in
      (* prime the cache with the same jobs under different ids *)
      ignore (run_script warm_server (script_lines "w" spec_seeds));
      let warm = run_script warm_server lines in
      cold = parallel && cold = warm)

let suites =
  [
    ( "server.cache_key",
      [
        Alcotest.test_case "textual invariance" `Quick
          test_key_textual_invariance;
        Alcotest.test_case "content sensitivity" `Quick
          test_key_content_sensitivity;
        Alcotest.test_case "config sensitivity" `Quick
          test_key_config_sensitivity;
        Alcotest.test_case "hex form" `Quick test_key_hex_stable;
        Alcotest.test_case "backend sensitivity" `Quick
          test_key_backend_sensitivity;
      ] );
    ( "server.job_queue",
      [
        Alcotest.test_case "dispatch order" `Quick test_queue_dispatch_order;
        Alcotest.test_case "admission control" `Quick test_queue_admission;
        Alcotest.test_case "deadlines" `Quick test_queue_deadlines;
      ] );
    ( "server.protocol",
      [
        Alcotest.test_case "request round-trip" `Quick
          test_protocol_request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick
          test_protocol_response_roundtrip;
        Alcotest.test_case "malformed requests" `Quick test_protocol_malformed;
        Alcotest.test_case "bounded reader lines" `Quick
          test_bounded_reader_lines;
        Alcotest.test_case "bounded reader partial at EOF" `Quick
          test_bounded_reader_partial_line_at_eof;
        Alcotest.test_case "bounded reader oversized resync" `Quick
          test_bounded_reader_oversized_resyncs;
      ] );
    ( "server.serve",
      [
        Alcotest.test_case "cache hit is byte-identical" `Quick
          test_server_cache_hit_identical;
        Alcotest.test_case "backend keys its own cache slot" `Quick
          test_server_backend_cache_not_shared;
        Alcotest.test_case "line hygiene" `Quick test_server_handle_line_hygiene;
        Alcotest.test_case "rejections" `Quick test_server_rejections;
        Alcotest.test_case "admission and displacement" `Quick
          test_server_admission_and_shedding;
        Alcotest.test_case "deadline shedding" `Quick test_server_deadline_shed;
        Alcotest.test_case "oversized line answered, serving continues" `Quick
          test_serve_answers_oversized_line;
        Alcotest.test_case "shutdown drains the queue" `Quick
          test_shutdown_drains_queue;
        Alcotest.test_case "dispatch hook is answer-transparent" `Quick
          test_dispatch_hook_is_answer_transparent;
        Alcotest.test_case "extra stats appended" `Quick
          test_extra_stats_appended;
        Alcotest.test_case "access log deterministic across jobs" `Quick
          test_access_log_deterministic_across_jobs;
        Alcotest.test_case "duplicate id keeps the original's record" `Quick
          test_duplicate_id_keeps_original_record;
        Alcotest.test_case "slow requests embed spans in the access log" `Quick
          test_access_log_slow_spans;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "one HELP and TYPE per metric" `Quick
          test_prometheus_one_header_per_metric;
        Alcotest.test_case "goodbye carries totals" `Quick test_goodbye_totals;
        Alcotest.test_case "repair warm/cold byte-identical" `Quick
          test_server_repair_warm_cold_identical;
        Alcotest.test_case "repair report jobs-invariant" `Quick
          test_server_repair_jobs_invariant;
        Alcotest.test_case "repair drains a queued target" `Quick
          test_server_repair_drains_queued_target;
        Alcotest.test_case "repair errors" `Quick test_server_repair_errors;
        Alcotest.test_case "latency histogram tracks requests" `Quick
          test_latency_histogram_tracks_requests;
        Alcotest.test_case "a failing job fails alone" `Quick
          test_failing_job_fails_alone;
        (* 1e400 parses to infinity *)
        Alcotest.test_case "non-finite tc rejected at submit" `Quick
          (tc_rejected_at_submit ~id:"inf" ~tc:"1e400"
             ~reason:"Config: tc must be finite");
        (* 1e308 is finite, but above Config.max_tc *)
        Alcotest.test_case "overflowing tc rejected at submit" `Quick
          (tc_rejected_at_submit ~id:"big" ~tc:"1e308"
             ~reason:"Config: tc must be at most 1e+06");
        Alcotest.test_case "client sa_restarts override capped" `Quick
          test_sa_restarts_override_capped;
        Alcotest.test_case "batch duplicate counts one miss" `Quick
          test_batch_duplicate_counts_once;
        Alcotest.test_case "load script" `Quick test_load_script;
        Alcotest.test_case "cache hit allocates at most 8,000 words" `Quick
          test_cache_hit_allocation;
        prop_server_responses_invariant;
      ] );
  ]
