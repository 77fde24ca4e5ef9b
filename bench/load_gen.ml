(* Load generator for the synthesis service.

   Three modes; the first two share one seeded workload (a mix of
   repeated "hot" and fresh requests — a pure function of --seed, so two
   runs replay byte-identical request scripts):

   In-process (default): replays the script against two in-process
   servers — one caching, one with the cache disabled — and reports
   throughput, cache hit rate, p50/p95 request latency, and
   shed/rejection counts.

   TCP (--connect HOST:PORT or --port-file FILE): open-loop multi-client
   generator against a running 'dcsa_synth serve --tcp' listener.
   --clients concurrent connections share a seeded Poisson arrival
   schedule (aggregate --rate req/s); requests fire at their scheduled
   instants regardless of completions, so queueing delay is measured,
   not hidden.  Reports per-client and aggregate p50/p95/p99, gates them
   against --slo-p95/--slo-p99, classifies transport errors
   (refused/reset/timeout), verifies that every client observed
   byte-identical payloads per job, and exits nonzero on any SLO breach
   or connection error.

   Edit-sequence (--edits N): a seeded chain of single-op duration
   edits on one inline assay, replayed against a similarity-enabled
   server (warm starts), the same server at --jobs 2 (warm-payload
   determinism), and a similarity-free server (cold baseline).  Reports
   the warm-vs-cold speedup next to near-hit / fallback counts, gates
   speedup >= --edit-slo, payload divergences = 0 across --jobs, and
   warm quality within the server's delta of cold, and exits nonzero
   on any breach.

   Run with: dune exec bench/load_gen.exe -- [--requests N] [--repeat F]
             [--hot K] [--jobs N] [--seed S] [--out FILE]
             [--connect HOST:PORT | --port-file FILE] [--clients N]
             [--rate R] [--slo-p95 MS] [--slo-p99 MS] [--req-timeout S]
             [--shutdown]
             [--edits N] [--edit-ops K] [--edit-slo X]

   Writes the machine-readable summary to BENCH_server.json (or --out);
   the TCP and edit modes merge a "tcp" / "edit" section into an
   existing summary. *)

module Json = Mfb_util.Json
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Client = Mfb_server.Client

open Bench_kit

let requests = arg_value "--requests" 240 int_of_string_opt
let repeat_fraction = arg_value "--repeat" 0.9 float_of_string_opt
let hot_set = arg_value "--hot" 8 int_of_string_opt
let jobs = arg_value "--jobs" 1 int_of_string_opt
let seed = arg_value "--seed" 7 int_of_string_opt
let out_file = arg_value "--out" "BENCH_server.json" (fun s -> Some s)

(* TCP-mode knobs; either --connect or --port-file selects the mode. *)
let connect_spec = arg_value "--connect" "" (fun s -> Some s)
let port_file = arg_value "--port-file" "" (fun s -> Some s)
let clients = arg_value "--clients" 4 int_of_string_opt
let rate = arg_value "--rate" 50.0 float_of_string_opt
let slo_p95 = arg_value "--slo-p95" 2000.0 float_of_string_opt
let slo_p99 = arg_value "--slo-p99" 5000.0 float_of_string_opt
let req_timeout = arg_value "--req-timeout" 30.0 float_of_string_opt
let do_shutdown = Array.exists (fun a -> a = "--shutdown") Sys.argv
let tcp_mode = connect_spec <> "" || port_file <> ""

(* Edit-sequence knobs; --edits > 0 selects the mode. *)
let edits = arg_value "--edits" 0 int_of_string_opt
let edit_ops = arg_value "--edit-ops" 12 int_of_string_opt
let edit_slo = arg_value "--edit-slo" 1.5 float_of_string_opt
let edit_mode = edits > 0

(* The request script: each entry is the seed override identifying a
   distinct synthesis job.  Hot requests draw from [hot_set] fixed
   seeds; fresh requests get a unique seed each.  Generated once, then
   replayed verbatim against both servers. *)
let script =
  let rng = Random.State.make [| seed |] in
  let fresh = ref 0 in
  List.init requests (fun _ ->
      if Random.State.float rng 1.0 < repeat_fraction then
        1000 + Random.State.int rng hot_set
      else begin
        incr fresh;
        100_000 + !fresh
      end)

let submit_of ~id ~job_seed =
  P.Submit
    {
      id;
      priority = 0;
      deadline = None;
      flow = `Ours;
      spec = P.Benchmark "PCR";
      overrides =
        { P.no_overrides with o_seed = Some job_seed };
      trace = None;
    }

(* Replay the script: submit + result per entry, recording per-request
   latency both client-side (gettimeofday around the round trip) and
   server-side (the wall-clock latency histogram).  Returns
   (elapsed_s, latencies_ms, payloads, stats, server_latency). *)
let replay ~cache_capacity =
  let server =
    Server.create
      {
        Server.default_config with
        jobs;
        cache_capacity;
        queue_depth = 64;
        clock = `Wall;
      }
  in
  let client = Client.in_process server in
  let latencies = Array.make requests 0.0 in
  let payloads = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i job_seed ->
      let id = Printf.sprintf "q%d" i in
      let r0 = Unix.gettimeofday () in
      (match Client.call client (submit_of ~id ~job_seed) with
       | Ok (P.Submitted _) -> ()
       | Ok other ->
         fail "request %s: unexpected response %s" id (P.response_to_line other)
       | Error e -> fail "request %s: %s" id e);
      (match Client.call client (P.Result id) with
       | Ok (P.Job_result { result; _ }) ->
         payloads := Json.to_string result :: !payloads
       | Ok other ->
         fail "result %s: unexpected response %s" id (P.response_to_line other)
       | Error e -> fail "result %s: %s" id e);
      latencies.(i) <- (Unix.gettimeofday () -. r0) *. 1e3)
    script;
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats = Server.stats_json server in
  let hist = Server.latency_histogram server in
  if Mfb_util.Histogram.count hist <> requests then
    fail "server latency histogram recorded %d of %d requests"
      (Mfb_util.Histogram.count hist) requests;
  (elapsed, latencies, List.rev !payloads, stats,
   Mfb_util.Histogram.snapshot_json hist)

let rec int_at path json =
  match path with
  | [] -> (match json with Json.Int i -> i | _ -> 0)
  | k :: rest ->
    (match Json.member k json with Some j -> int_at rest j | None -> 0)

let summary name (elapsed, latencies, _payloads, stats, server_latency) =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let hits = int_at [ "cache"; "hits" ] stats in
  let misses = int_at [ "cache"; "misses" ] stats in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let throughput = float_of_int requests /. elapsed in
  let p50 = percentile sorted 0.50
  and p95 = percentile sorted 0.95
  and p99 = percentile sorted 0.99
  and lmax = sorted.(Array.length sorted - 1) in
  let computed = int_at [ "computed" ] stats in
  let shed =
    int_at [ "shed"; "deadline" ] stats + int_at [ "shed"; "displaced" ] stats
  in
  let rejected = int_at [ "rejected" ] stats in
  Printf.printf
    "%-10s %6.1f req/s   hit rate %5.1f%%   p50 %6.2f ms   p95 %6.2f ms   \
     p99 %6.2f ms   max %6.2f ms   computed %3d   shed %d   rejected %d\n"
    name throughput (100.0 *. hit_rate) p50 p95 p99 lmax computed shed
    rejected;
  Json.Obj
    [
      ("elapsed_s", Json.Float elapsed);
      ("throughput_rps", Json.Float throughput);
      ("hit_rate", Json.Float hit_rate);
      ("p50_ms", Json.Float p50);
      ("p95_ms", Json.Float p95);
      ("p99_ms", Json.Float p99);
      ("max_ms", Json.Float lmax);
      ("computed", Json.Int computed);
      ("shed", Json.Int shed);
      ("rejected", Json.Int rejected);
      (* Server-side view of the same distribution, from the rolling
         log-bucketed histogram — cross-checks the client percentiles
         (bucket resolution ~19%, so expect agreement, not equality). *)
      ("server_latency", server_latency);
    ]

(* ---------------- TCP mode ---------------- *)

type err_class = Refused | Reset | Timeout | Other

type req_state =
  | Waiting
  | Done of float  (* latency, ms *)
  | Shed           (* structured admission-control reject: not an error *)
  | Failed of err_class

type tcp_conn = {
  c_id : int;
  mutable c_fd : Unix.file_descr option;  (* None once dead *)
  c_frame : Mfb_net.Frame.t;
  (* request indices awaiting replies, in wire order; the flag marks
     the Job_result (vs the Submitted ack) expectation *)
  c_expect : (int * bool) Queue.t;
  mutable c_fail : err_class;  (* classifies requests sent after death *)
}

let resolve_endpoint () =
  if connect_spec <> "" then begin
    match String.rindex_opt connect_spec ':' with
    | Some i ->
      let host = String.sub connect_spec 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      (match
         int_of_string_opt
           (String.sub connect_spec (i + 1)
              (String.length connect_spec - i - 1))
       with
       | Some p -> (host, p)
       | None -> fail "--connect: bad port in %S" connect_spec)
    | None ->
      (match int_of_string_opt connect_spec with
       | Some p -> ("127.0.0.1", p)
       | None -> fail "--connect expects HOST:PORT or PORT")
  end
  else
    match Mfb_net.Tcp_client.wait_port_file port_file with
    | Ok p -> ("127.0.0.1", p)
    | Error e -> fail "%s" e

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let err_name = function
  | Refused -> "refused"
  | Reset -> "reset"
  | Timeout -> "timeout"
  | Other -> "other"

let quantiles_json latencies =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  if Array.length sorted = 0 then
    Json.Obj [ ("count", Json.Int 0) ]
  else
    Json.Obj
      [
        ("count", Json.Int (Array.length sorted));
        ("p50_ms", Json.Float (percentile sorted 0.50));
        ("p95_ms", Json.Float (percentile sorted 0.95));
        ("p99_ms", Json.Float (percentile sorted 0.99));
        ("max_ms", Json.Float sorted.(Array.length sorted - 1));
      ]

(* ---------------- Edit-sequence mode ---------------- *)

(* A seeded chain assay: [edit_ops] alternating mix/heat ops on a path
   graph, plus [edits] single-op duration edits.  Each edit bumps one
   random op's duration by 1..3 (wrapping within 3..9), so consecutive
   requests are never byte-identical — no exact-cache hit — yet differ
   in a single op label, inside the server's default similarity
   threshold.  The whole sequence is a pure function of --seed. *)
let edit_texts () =
  let rng = Random.State.make [| seed; 0xed17 |] in
  let durs = Array.init edit_ops (fun _ -> 3 + Random.State.int rng 7) in
  let render () =
    let b = Buffer.create 512 in
    Buffer.add_string b "assay \"edit-chain\"\n";
    Buffer.add_string b "fluid a 4e-7\nfluid b 1e-6\n";
    Array.iteri
      (fun i d ->
        Buffer.add_string b
          (Printf.sprintf "op %d %s %d %s\n" i
             (if i mod 2 = 0 then "mix" else "heat")
             d
             (if i mod 2 = 0 then "a" else "b")))
      durs;
    for i = 0 to edit_ops - 2 do
      Buffer.add_string b (Printf.sprintf "edge %d %d\n" i (i + 1))
    done;
    Buffer.contents b
  in
  let base = render () in
  let steps = ref [] in
  for _ = 1 to edits do
    let v = Random.State.int rng edit_ops in
    durs.(v) <- 3 + ((durs.(v) - 3 + 1 + Random.State.int rng 3) mod 7);
    steps := render () :: !steps
  done;
  base :: List.rev !steps

let submit_edit ~id ~text =
  P.Submit
    {
      id;
      priority = 0;
      deadline = None;
      flow = `Ours;
      spec = P.Assay { text; alloc = None };
      overrides = P.no_overrides;
      trace = None;
    }

(* Replay the edit sequence; returns (elapsed_s, latencies_ms, payloads,
   near_hits, warm_fallbacks). *)
let replay_edits ~similarity ~jobs texts =
  let server =
    Server.create
      {
        Server.default_config with
        jobs;
        cache_capacity = 128;
        queue_depth = 64;
        clock = `Wall;
        similarity;
      }
  in
  let client = Client.in_process server in
  let latencies = Array.make (List.length texts) 0.0 in
  let payloads = ref [] in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i text ->
      let id = Printf.sprintf "e%d" i in
      let r0 = Unix.gettimeofday () in
      (match Client.call client (submit_edit ~id ~text) with
       | Ok (P.Submitted _) -> ()
       | Ok other ->
         fail "edit %s: unexpected response %s" id (P.response_to_line other)
       | Error e -> fail "edit %s: %s" id e);
      (match Client.call client (P.Result id) with
       | Ok (P.Job_result { result; _ }) ->
         payloads := Json.to_string result :: !payloads
       | Ok other ->
         fail "edit result %s: unexpected response %s" id
           (P.response_to_line other)
       | Error e -> fail "edit result %s: %s" id e);
      latencies.(i) <- (Unix.gettimeofday () -. r0) *. 1e3)
    texts;
  let elapsed = Unix.gettimeofday () -. t0 in
  let near, fallbacks = Server.near_hit_counts server in
  (elapsed, latencies, List.rev !payloads, near, fallbacks)

let exec_time_of payload =
  match Json.of_string payload with
  | Ok j ->
    (match Json.member "execution_time_s" j with
     | Some (Json.Float f) -> f
     | Some (Json.Int i) -> float_of_int i
     | _ -> Float.nan)
  | Error _ -> Float.nan

let run_edits () =
  if edits < 1 then fail "--edits must be >= 1";
  if edit_ops < 2 then fail "--edit-ops must be >= 2";
  Printf.printf
    "edit-sequence workload: base + %d single-op edits over a %d-op chain, \
     seed=%d\n\n"
    edits edit_ops seed;
  let texts = edit_texts () in
  let we, wl, wp, near, fb = replay_edits ~similarity:true ~jobs:1 texts in
  let _, _, wp2, near2, fb2 = replay_edits ~similarity:true ~jobs:2 texts in
  let ce, cl, cp, _, _ = replay_edits ~similarity:false ~jobs:1 texts in
  (* Determinism: warm decisions and payload bytes must not depend on
     the worker-pool width. *)
  let divergences =
    List.fold_left2 (fun a p q -> if p = q then a else a + 1) 0 wp wp2
    + if (near, fb) = (near2, fb2) then 0 else 1
  in
  (* Quality: every warm answer must land within the server's delta of
     the cold answer for the same request — the bench holds both payload
     sets, so the warm-start proof obligation is re-checked end to end
     rather than trusted. *)
  let delta = Server.warm_delta in
  let breaches = ref 0 in
  List.iter2
    (fun p q ->
      let w = exec_time_of p and c = exec_time_of q in
      if (not (Float.is_finite w)) || w > (c *. (1. +. delta)) +. 1e-9 then
        incr breaches)
    wp cp;
  let speedup = ce /. we in
  let pq l p =
    let s = Array.copy l in
    Array.sort compare s;
    percentile s p
  in
  Printf.printf
    "warm       %6.2f s   p50 %6.2f ms   p95 %6.2f ms   near-hits %d   \
     fallbacks %d\n"
    we (pq wl 0.50) (pq wl 0.95) near fb;
  Printf.printf "cold       %6.2f s   p50 %6.2f ms   p95 %6.2f ms\n" ce
    (pq cl 0.50) (pq cl 0.95);
  let pass = divergences = 0 && !breaches = 0 && near > 0 && speedup >= edit_slo in
  Printf.printf
    "warm speedup over cold: %.2fx (SLO >= %.2fx)   payload divergences \
     (--jobs 1 vs 2): %d   quality breaches (delta %.2f): %d   %s\n"
    speedup edit_slo divergences delta !breaches
    (if pass then "PASS" else "FAIL");
  let run_json elapsed lats =
    Json.Obj
      [ ("elapsed_s", Json.Float elapsed); ("latency", quantiles_json lats) ]
  in
  let edit_json =
    Json.Obj
      [
        ("edits", Json.Int edits);
        ("ops", Json.Int edit_ops);
        ("seed", Json.Int seed);
        ("near_hits", Json.Int near);
        ("warm_fallbacks", Json.Int fb);
        ("warm", run_json we wl);
        ("cold", run_json ce cl);
        ("speedup", Json.Float speedup);
        ("speedup_slo", Json.Float edit_slo);
        ("payload_divergences", Json.Int divergences);
        ("quality_delta", Json.Float delta);
        ("quality_breaches", Json.Int !breaches);
        ("pass", Json.Bool pass);
      ]
  in
  (* merge the edit section into an existing summary document *)
  let doc =
    let existing =
      if Sys.file_exists out_file then
        match
          Json.of_string
            (In_channel.with_open_text out_file In_channel.input_all)
        with
        | Ok (Json.Obj fields) ->
          Some (List.filter (fun (k, _) -> k <> "edit") fields)
        | Ok _ | Error _ -> None
      else None
    in
    Json.Obj
      ((match existing with Some fields -> fields | None -> [])
      @ [ ("edit", edit_json) ])
  in
  Out_channel.with_open_text out_file (fun oc ->
      Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" out_file;
  if divergences > 0 then
    fail "warm payloads diverge across --jobs values (%d divergence(s))"
      divergences;
  if !breaches > 0 then
    fail "%d warm result(s) exceeded the quality delta %.2f" !breaches delta;
  if near = 0 then fail "similarity cache never warm-started a request";
  if speedup < edit_slo then
    fail "edit SLO breach: warm speedup %.2fx < %.2fx" speedup edit_slo

let run_tcp ~host ~port =
  let n = requests in
  let script = Array.of_list script in
  (* Open-loop Poisson arrivals: exponential inter-arrival gaps at the
     aggregate rate, seeded so reruns replay the same schedule. *)
  let arrivals = Array.make n 0.0 in
  let () =
    let rng = Random.State.make [| seed; 0x10ad |] in
    let t = ref 0.0 in
    for i = 0 to n - 1 do
      let u = Random.State.float rng 1.0 in
      t := !t +. (-.Float.log (1.0 -. u)) /. rate;
      arrivals.(i) <- !t
    done
  in
  let state = Array.make n Waiting in
  let sent = Array.make n false in
  let payloads = Array.make n "" in
  let conns =
    Array.init clients (fun c_id ->
        let c =
          {
            c_id;
            c_fd = None;
            c_frame = Mfb_net.Frame.create ();
            c_expect = Queue.create ();
            c_fail = Refused;
          }
        in
        (match Mfb_net.Tcp_client.connect_fd ~host ~port () with
         | fd -> c.c_fd <- Some fd
         | exception Unix.Unix_error (e, _, _) ->
           Printf.eprintf "client %d: connect %s:%d: %s\n%!" c_id host port
             (Unix.error_message e));
        c)
  in
  let kill c cls =
    match c.c_fd with
    | None -> ()
    | Some fd ->
      c.c_fd <- None;
      c.c_fail <- cls;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Queue.iter
        (fun (i, _) -> if state.(i) = Waiting then state.(i) <- Failed cls)
        c.c_expect;
      Queue.clear c.c_expect
  in
  let t0 = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t0 in
  let handle_line c line =
    match Queue.take_opt c.c_expect with
    | None -> ()  (* stray line after accounting closed; ignore *)
    | Some (i, want_result) ->
      (match (P.response_of_line line, want_result) with
       | Ok (P.Submitted _), false -> ()
       | Ok (P.Job_result { result; _ }), true ->
         if state.(i) = Waiting then begin
           state.(i) <- Done ((now () -. arrivals.(i)) *. 1e3);
           payloads.(i) <- Json.to_string result
         end
       | Ok (P.Rejected { reason; _ }), _ ->
         if state.(i) = Waiting then begin
           state.(i) <- Shed;
           Printf.eprintf "request %d shed: %s\n%!" i reason
         end;
         (* the paired Result expectation answers with an error line *)
         ()
       | Ok (P.Bad_request { message; _ }), _ ->
         if state.(i) = Waiting then state.(i) <- Failed Other;
         Printf.eprintf "request %d: bad request: %s\n%!" i message
       | Ok _, _ | Error _, _ ->
         if state.(i) = Waiting then state.(i) <- Failed Other)
  in
  let rbuf = Bytes.create 65536 in
  let read_conn c =
    match c.c_fd with
    | None -> ()
    | Some fd ->
      (match Unix.read fd rbuf 0 (Bytes.length rbuf) with
       | 0 -> kill c Reset
       | k ->
         Mfb_net.Frame.feed_bytes c.c_frame rbuf k;
         let rec drain () =
           match Mfb_net.Frame.next c.c_frame with
           | Some (Mfb_net.Frame.Line l) ->
             handle_line c l;
             drain ()
           | Some (Mfb_net.Frame.Oversized _) ->
             (match Queue.take_opt c.c_expect with
              | Some (i, _) ->
                if state.(i) = Waiting then state.(i) <- Failed Other
              | None -> ());
             drain ()
           | None -> ()
         in
         drain ()
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
         kill c Reset
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  in
  let send i =
    sent.(i) <- true;
    let c = conns.(i mod clients) in
    match c.c_fd with
    | None -> state.(i) <- Failed c.c_fail
    | Some fd ->
      let id = Printf.sprintf "c%dq%d" c.c_id i in
      let lines =
        P.request_to_line (submit_of ~id ~job_seed:script.(i))
        ^ "\n"
        ^ P.request_to_line (P.Result id)
        ^ "\n"
      in
      (match write_all fd lines with
       | () ->
         Queue.add (i, false) c.c_expect;
         Queue.add (i, true) c.c_expect
       | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
         state.(i) <- Failed Reset;
         kill c Reset)
  in
  let next_send = ref 0 in
  let unresolved () =
    Array.exists (fun s -> s = Waiting) state || !next_send < n
  in
  let hard_deadline = arrivals.(n - 1) +. req_timeout +. 5.0 in
  while unresolved () && now () < hard_deadline do
    let t = now () in
    while !next_send < n && arrivals.(!next_send) <= t do
      send !next_send;
      incr next_send
    done;
    (* expire requests past their reply deadline *)
    for i = 0 to !next_send - 1 do
      if state.(i) = Waiting && sent.(i) && t -. arrivals.(i) > req_timeout
      then state.(i) <- Failed Timeout
    done;
    let until_next =
      if !next_send < n then arrivals.(!next_send) -. t else 0.25
    in
    let tmo = Float.max 0.0 (Float.min until_next 0.25) in
    let rfds =
      Array.to_list conns
      |> List.filter_map (fun c ->
             if Queue.is_empty c.c_expect then None else c.c_fd)
    in
    if rfds = [] then Unix.sleepf (Float.max tmo 0.001)
    else begin
      match Unix.select rfds [] [] tmo with
      | rs, _, _ ->
        Array.iter
          (fun c ->
            match c.c_fd with
            | Some fd when List.mem fd rs -> read_conn c
            | _ -> ())
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (* anything still unresolved at the hard deadline is a timeout *)
  for i = 0 to n - 1 do
    if state.(i) = Waiting then state.(i) <- Failed Timeout
  done;
  let elapsed = now () in
  (* optional orderly shutdown through the first live connection,
     harvesting the server's final stats from its Goodbye *)
  let server_stats = ref Json.Null in
  if do_shutdown then begin
    match
      Array.to_list conns |> List.find_opt (fun c -> c.c_fd <> None)
    with
    | None -> prerr_endline "shutdown requested but no live connection"
    | Some c ->
      let fd = Option.get c.c_fd in
      (match write_all fd (P.request_to_line P.Shutdown ^ "\n") with
       | () ->
         let deadline = Unix.gettimeofday () +. 10.0 in
         let rec await () =
           if Unix.gettimeofday () < deadline then begin
             match Unix.select [ fd ] [] [] 0.25 with
             | [], _, _ -> await ()
             | _ ->
               (match Unix.read fd rbuf 0 (Bytes.length rbuf) with
                | 0 -> ()
                | k ->
                  Mfb_net.Frame.feed_bytes c.c_frame rbuf k;
                  let rec drain () =
                    match Mfb_net.Frame.next c.c_frame with
                    | Some (Mfb_net.Frame.Line l) ->
                      (match P.response_of_line l with
                       | Ok (P.Goodbye stats) -> server_stats := stats
                       | _ -> drain ())
                    | Some (Mfb_net.Frame.Oversized _) -> drain ()
                    | None -> await ()
                  in
                  drain ()
                | exception Unix.Unix_error _ -> ())
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
           end
         in
         await ()
       | exception Unix.Unix_error _ -> ());
      kill c Other
  end;
  Array.iter (fun c -> kill c Other) conns;
  (* cache transparency across clients: every completed request for the
     same job must have returned byte-identical payload *)
  let identical = ref true in
  let by_seed = Hashtbl.create 64 in
  Array.iteri
    (fun i p ->
      if p <> "" then begin
        let s = script.(i) in
        match Hashtbl.find_opt by_seed s with
        | None -> Hashtbl.add by_seed s p
        | Some q ->
          if p <> q then begin
            identical := false;
            Printf.eprintf "payload divergence on job seed %d (request %d)\n%!"
              s i
          end
      end)
    payloads;
  let errors = Hashtbl.create 4 in
  let bump_err c =
    Hashtbl.replace errors c
      (1 + Option.value ~default:0 (Hashtbl.find_opt errors c))
  in
  Array.iter (function Failed c -> bump_err c | _ -> ()) state;
  let err_count c = Option.value ~default:0 (Hashtbl.find_opt errors c) in
  let total_errors = List.fold_left ( + ) 0 (List.map err_count
    [ Refused; Reset; Timeout; Other ]) in
  let shed = Array.fold_left
    (fun a s -> if s = Shed then a + 1 else a) 0 state in
  let completed =
    Array.to_list state
    |> List.filter_map (function Done l -> Some l | _ -> None)
    |> Array.of_list
  in
  let agg_sorted = Array.copy completed in
  Array.sort compare agg_sorted;
  let agg_p95 =
    if Array.length agg_sorted = 0 then Float.infinity
    else percentile agg_sorted 0.95
  and agg_p99 =
    if Array.length agg_sorted = 0 then Float.infinity
    else percentile agg_sorted 0.99
  in
  let slo_pass =
    Array.length completed > 0 && agg_p95 <= slo_p95 && agg_p99 <= slo_p99
  in
  let per_client =
    List.init clients (fun c ->
        let lats =
          Array.to_list state
          |> List.filteri (fun i _ -> i mod clients = c)
          |> List.filter_map (function Done l -> Some l | _ -> None)
          |> Array.of_list
        in
        Json.Obj
          (("client", Json.Int c)
           :: (match quantiles_json lats with
               | Json.Obj fields -> fields
               | _ -> [])))
  in
  Printf.printf
    "tcp: %d clients at %.1f req/s aggregate against %s:%d\n" clients rate
    host port;
  Printf.printf
    "completed %d/%d in %.2f s   shed %d   errors: refused %d, reset %d, \
     timeout %d, other %d\n"
    (Array.length completed) n elapsed shed (err_count Refused)
    (err_count Reset) (err_count Timeout) (err_count Other);
  if Array.length agg_sorted > 0 then
    Printf.printf
      "aggregate p50 %6.2f ms   p95 %6.2f ms   p99 %6.2f ms   max %6.2f \
       ms   SLO(p95<=%.0f, p99<=%.0f) %s\n"
      (percentile agg_sorted 0.50) agg_p95 agg_p99
      agg_sorted.(Array.length agg_sorted - 1)
      slo_p95 slo_p99
      (if slo_pass then "PASS" else "FAIL");
  let tcp_json =
    Json.Obj
      [
        ("host", Json.String host);
        ("port", Json.Int port);
        ("clients", Json.Int clients);
        ("rate_rps", Json.Float rate);
        ("requests", Json.Int n);
        ("elapsed_s", Json.Float elapsed);
        ("completed", Json.Int (Array.length completed));
        ("shed", Json.Int shed);
        ( "errors",
          Json.Obj
            (List.map
               (fun c -> (err_name c, Json.Int (err_count c)))
               [ Refused; Reset; Timeout; Other ]) );
        ("aggregate", quantiles_json completed);
        ("per_client", Json.List per_client);
        ( "slo",
          Json.Obj
            [
              ("p95_ms", Json.Float slo_p95);
              ("p99_ms", Json.Float slo_p99);
              ("pass", Json.Bool slo_pass);
            ] );
        ("payloads_identical", Json.Bool !identical);
        ("server_stats", !server_stats);
      ]
  in
  (* merge the tcp section into an existing summary document *)
  let doc =
    let existing =
      if Sys.file_exists out_file then
        match Json.of_string (In_channel.with_open_text out_file
                                In_channel.input_all) with
        | Ok (Json.Obj fields) ->
          Some (List.filter (fun (k, _) -> k <> "tcp") fields)
        | Ok _ | Error _ -> None
      else None
    in
    Json.Obj
      ((match existing with Some fields -> fields | None -> [])
       @ [ ("tcp", tcp_json) ])
  in
  Out_channel.with_open_text out_file (fun oc ->
      Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" out_file;
  if not !identical then fail "cross-client payload divergence";
  if total_errors > 0 then
    fail "%d transport error(s): refused %d, reset %d, timeout %d, other %d"
      total_errors (err_count Refused) (err_count Reset) (err_count Timeout)
      (err_count Other);
  if not slo_pass then
    fail "SLO breach: p95 %.2f ms (<= %.2f), p99 %.2f ms (<= %.2f)" agg_p95
      slo_p95 agg_p99 slo_p99

let () =
  if requests < 1 then fail "--requests must be >= 1";
  if edit_mode then begin
    if tcp_mode then fail "--edits is incompatible with TCP mode";
    run_edits ();
    exit 0
  end;
  if tcp_mode then begin
    if clients < 1 then fail "--clients must be >= 1";
    if rate <= 0.0 then fail "--rate must be positive";
    let host, port = resolve_endpoint () in
    run_tcp ~host ~port;
    exit 0
  end;
  Printf.printf
    "synthesis-service load generator: %d requests, %.0f%% repeat over %d \
     hot keys, jobs=%d, seed=%d\n\n"
    requests (100.0 *. repeat_fraction) hot_set jobs seed;
  let cached_run = replay ~cache_capacity:128 in
  let nocache_run = replay ~cache_capacity:0 in
  let cached = summary "cached" cached_run in
  let nocache = summary "no-cache" nocache_run in
  let (ce, _, cp, _, _) = cached_run and (ne, _, np, _, _) = nocache_run in
  if cp <> np then fail "cache transparency violated: payloads differ";
  Printf.printf "\ncache transparency: all %d payloads byte-identical\n"
    requests;
  let speedup = ne /. ce in
  Printf.printf "speedup (no-cache / cached elapsed): %.1fx\n" speedup;
  let doc =
    Json.Obj
      [
        ( "workload",
          Json.Obj
            [
              ("requests", Json.Int requests);
              ("repeat_fraction", Json.Float repeat_fraction);
              ("hot_set", Json.Int hot_set);
              ("jobs", Json.Int jobs);
              ("seed", Json.Int seed);
              ("benchmark", Json.String "PCR");
            ] );
        ("cached", cached);
        ("no_cache", nocache);
        ("speedup", Json.Float speedup);
        ("payloads_identical", Json.Bool (cp = np));
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" out_file
