(* The serving workloads, [serve-hot] and [serve-churn]: an open loop of
   requests at a fixed rate with seeded Poisson arrivals, sent over TCP
   to a spawned [dcsa_synth serve --tcp 0 --wall-clock].  Each request's
   latency runs from the instant it was due to its final reply, so a
   stall also counts against the requests queued behind it.

   Every reply is compared byte for byte with an in-process replay of
   the same script through [Server.handle_line].  The traced run replays
   the script once more in-process, through [Frame], [Protocol] and
   [Server.handle] one call at a time, to split a request into layers. *)

module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Frame = Mfb_net.Frame

type kind = Hit | Fresh | Edit | Repeat | Repair

type request = {
  kind : kind;
  lines : string list;  (* protocol lines; the last one's reply ends it *)
  due : float;          (* seconds after the timed phase starts *)
}

type shape = {
  rate : float;        (* requests per second *)
  conns : int;
  flags : string list; (* extra [serve] flags *)
  config : Server.config;  (* the same settings, for in-process replays *)
}

(* Exact hits only: the hot set is computed during set-up. *)
let hot =
  { rate = 300.; conns = 2; flags = []; config = Server.default_config }

(* Writes and evictions: the caches hold fewer entries than the script
   has distinct jobs.  One connection keeps the server's handling order
   equal to the script order, on which near-hit payloads depend.  The
   rate keeps the server about 10% busy: at 25% and more, requests queue
   behind cold syntheses and the median swings threefold between runs. *)
let churn =
  {
    rate = 40.;
    conns = 1;
    flags = [ "--similarity"; "--cache-size"; "64"; "--repair-cache"; "8" ];
    config =
      {
        Server.default_config with
        similarity = true;
        cache_capacity = 64;
        repair_cache = 8;
      };
  }

let submit_lines id spec overrides =
  [
    P.request_to_line
      (P.Submit
         { id; priority = 0; deadline = None; flow = `Ours; spec; overrides;
           trace = None });
    P.request_to_line (P.Result id);
  ]

let pcr_variant id seed =
  submit_lines id (P.Benchmark "PCR") { P.no_overrides with o_seed = Some seed }

let hot_set seed = List.init 48 (fun j -> (seed * 100) + j)

(* The [k]th fresh inline assay of a script, 12 operations.  Every seed
   draws the same assays, in the same order: which requests they land on
   varies, their cost and quality do not. *)
let fresh_assay k =
  let graph =
    Mfb_bioassay.Synthetic.generate ~name:(Printf.sprintf "f%d" k)
      { Mfb_bioassay.Synthetic.default_params with n_ops = 12; seed = k }
  in
  (Mfb_bioassay.Assay_file.to_string graph, (3, 1, 1, 1))

(* The same assay with one operation's duration changed. *)
let edit_assay rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let ops =
    List.filter
      (fun i -> String.length lines.(i) > 3 && String.sub lines.(i) 0 3 = "op ")
      (List.init (Array.length lines) Fun.id)
  in
  let i = List.nth ops (Random.State.int rng (List.length ops)) in
  (match String.split_on_char ' ' lines.(i) with
   | [ "op"; id; kind; dur; fluid ] ->
     let d = float_of_string dur +. float_of_int (1 + Random.State.int rng 3) in
     let d = if d > 12. then d -. 8. else d in
     lines.(i) <- Printf.sprintf "op %s %s %g %s" id kind d fluid
   | _ -> invalid_arg "edit_assay: unexpected op line");
  String.concat "\n" (Array.to_list lines)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let take n l = List.filteri (fun i _ -> i < n) l

(* Poisson arrivals at [rate] over [seconds]. *)
let arrivals rng ~rate ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let t = ref 0. in
  List.init n (fun _ ->
      t := !t -. (Float.log (1. -. Random.State.float rng 1.) /. rate);
      !t)

(* The churn mix: every block of 20 requests holds 2 fresh assays,
   4 edits, 12 repeats and 2 repairs in seeded order, so each seed runs
   the same mix and only its contents vary.  With edits at the median
   it swung twofold between seeds, as warm-start cost varies with the
   edit; repeats keep it inside the fast requests. *)
let churn_block =
  List.concat_map
    (fun (n, k) -> List.init n (fun _ -> k))
    [ (2, Fresh); (4, Edit); (12, Repeat); (2, Repair) ]
  |> Array.of_list

let churn_kinds rng n =
  let m = Array.length churn_block in
  let kinds = Array.init (((n + m - 1) / m) * m) (fun i -> churn_block.(i mod m)) in
  for b = 0 to (Array.length kinds / m) - 1 do
    for j = m - 1 downto 1 do
      let k = (b * m) + Random.State.int rng (j + 1) in
      let t = kinds.((b * m) + j) in
      kinds.((b * m) + j) <- kinds.(k);
      kinds.(k) <- t
    done
  done;
  kinds

(* (warm-up requests, timed requests) *)
let script (args : Kit.args) shape =
  let rng = Random.State.make [| args.seed; 0x5e7e |] in
  let seconds = if args.smoke then 1. else args.seconds in
  let dues = arrivals rng ~rate:shape.rate ~seconds in
  if args.workload = "serve-hot" then
    let seeds = hot_set args.seed in
    let warm =
      List.mapi
        (fun j s ->
          { kind = Fresh; lines = pcr_variant (Printf.sprintf "w%d" j) s;
            due = 0. })
        seeds
    in
    ( warm,
      List.mapi
        (fun i due ->
          { kind = Hit; lines = pcr_variant (Printf.sprintf "q%d" i) (pick rng seeds);
            due })
        dues )
  else begin
    (* recent distinct assays, and recent computed submissions with their
       mixer count, newest first *)
    let assays = ref [] and ids = ref [] in
    let submit i due kind (text, ((mixers, _, _, _) as alloc)) =
      let id = Printf.sprintf "q%d" i in
      if kind <> Repeat then begin
        assays := take 16 ((text, alloc) :: !assays);
        ids := take 4 ((id, mixers) :: !ids)
      end;
      { kind; due;
        lines = submit_lines id (P.Assay { text; alloc = Some alloc }) P.no_overrides }
    in
    let kinds = churn_kinds rng (List.length dues) in
    let fresh = ref 0 in
    let next_fresh () =
      incr fresh;
      fresh_assay !fresh
    in
    ( [],
      List.mapi
        (fun i due ->
          match kinds.(i) with
          | _ when !assays = [] -> submit i due Fresh (next_fresh ())
          | Fresh -> submit i due Fresh (next_fresh ())
          | Edit ->
            let text, alloc = pick rng (take 8 !assays) in
            submit i due Edit (edit_assay rng text, alloc)
          | Repeat -> submit i due Repeat (pick rng !assays)
          | Hit | Repair ->
            (* Kill the sole heater: component faults on a kind with
               spares can make [Plan.repair] return an illegal routing,
               which the server rejects (a failed operation). *)
            let target, heater = pick rng !ids in
            { kind = Repair; due;
              lines =
                [ P.request_to_line
                    (P.Repair
                       { id = Printf.sprintf "p%d" i; target;
                         defects = [ Mfb_repair.Defect.Component heater ] }) ] })
        dues )
  end

(* --- the spawned server --- *)

type conn = {
  fd : Unix.file_descr;
  frame : Frame.t;
  expect : (int * bool) Queue.t;  (* request index, is its final reply *)
}

type server = { pid : int; conns : conn array }

let children = ref []

let reap pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

(* Whatever happens, no server outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let run_dir = ".perfbench_run"

let spawn (args : Kit.args) shape k =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let port_file =
    Filename.concat run_dir (Printf.sprintf "port-%d-%d" (Unix.getpid ()) k)
  in
  if Sys.file_exists port_file then Sys.remove port_file;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [ args.server_bin; "serve"; "--tcp"; "0"; "--port-file"; port_file;
      "--wall-clock" ]
    @ shape.flags
  in
  let pid =
    Unix.create_process args.server_bin (Array.of_list argv) devnull
      Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  children := pid :: !children;
  let port =
    match Mfb_net.Tcp_client.wait_port_file ~timeout:30. port_file with
    | Ok p -> p
    | Error e -> Kit.die "server did not start: %s" e
  in
  Sys.remove port_file;
  let conns =
    Array.init shape.conns (fun _ ->
        {
          fd = Mfb_net.Tcp_client.connect_fd ~port ();
          frame = Frame.create ();
          expect = Queue.create ();
        })
  in
  { pid; conns }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c lines = write_all c.fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) 0

let buf = Bytes.create 65536

(* Read what is available on [c]; [on_line] gets each complete line. *)
let read_conn c on_line =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> Kit.die "server closed the connection"
  | k ->
    Frame.feed_bytes c.frame buf k;
    let rec drain () =
      match Frame.next c.frame with
      | Some (Frame.Line l) ->
        on_line l;
        drain ()
      | Some (Frame.Oversized _) -> Kit.die "oversized reply"
      | None -> ()
    in
    drain ()

(* Blocking request/reply on one connection, for set-up and stats. *)
let roundtrip c line =
  send c [ line ];
  let reply = ref None in
  let deadline = Unix.gettimeofday () +. 60. in
  while !reply = None do
    if Unix.gettimeofday () > deadline then Kit.die "no reply to %s" line;
    match Unix.select [ c.fd ] [] [] 1. with
    | [], _, _ -> ()
    | _ -> read_conn c (fun l -> if !reply = None then reply := Some l)
  done;
  Option.get !reply

let stop srv =
  (match roundtrip srv.conns.(0) (P.request_to_line P.Shutdown) with
   | _ -> ()
   | exception Unix.Unix_error _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) srv.conns;
  reap srv.pid

(* --- the timed phase --- *)

type tcp_run = {
  replies : string list array;  (* per timed request, in order *)
  latency_ms : float option array;  (* None: never completed *)
  lag_ms : float list;
  cpu_s : float;  (* server CPU over the phase *)
}

let open_loop srv (reqs : request array) =
  let n = Array.length reqs in
  let replies = Array.make n [] and latency = Array.make n None in
  let lags = ref [] and next = ref 0 and pending = ref 0 in
  Gc.full_major ();
  let cpu0 = Kit.cpu_seconds srv.pid in
  let t0 = Unix.gettimeofday () in
  let deadline = reqs.(n - 1).due +. 20. in
  let now () = Unix.gettimeofday () -. t0 in
  while (!next < n || !pending > 0) && now () < deadline do
    while !next < n && reqs.(!next).due <= now () do
      let i = !next in
      let c = srv.conns.(i mod Array.length srv.conns) in
      let last = List.length reqs.(i).lines - 1 in
      List.iteri (fun k _ -> Queue.add (i, k = last) c.expect) reqs.(i).lines;
      lags := ((now () -. reqs.(i).due) *. 1000.) :: !lags;
      send c reqs.(i).lines;
      incr pending;
      incr next
    done;
    let wait =
      if !next < n then Float.max 0. (Float.min 0.05 (reqs.(!next).due -. now ()))
      else 0.05
    in
    let waiting =
      Array.to_list srv.conns
      |> List.filter (fun c -> not (Queue.is_empty c.expect))
      |> List.map (fun c -> c.fd)
    in
    let ready =
      if waiting = [] then (Unix.sleepf wait; [])
      else match Unix.select waiting [] [] wait with
        | rs, _, _ -> rs
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Array.iter
      (fun c ->
        if List.mem c.fd ready then
          read_conn c (fun line ->
              let i, final = Queue.pop c.expect in
              replies.(i) <- line :: replies.(i);
              if final then begin
                latency.(i) <- Some ((now () -. reqs.(i).due) *. 1000.);
                decr pending
              end))
      srv.conns
  done;
  let cpu_s = Kit.cpu_seconds srv.pid -. cpu0 in
  { replies = Array.map List.rev replies; latency_ms = latency; lag_ms = !lags; cpu_s }

(* --- in-process replays --- *)

(* Replays of the timed script, each on a fresh server that has seen the
   warm-up: at least two, for at least three seconds.  Each holds every
   request's replies and wall time. *)
let replays config (warm : request list) (reqs : request array) =
  let once () =
    let server = Server.create config in
    let replay r = List.filter_map (Server.handle_line server) r.lines in
    List.iter (fun r -> ignore (replay r)) warm;
    Gc.full_major ();
    Array.map (fun r -> Kit.time (fun () -> replay r)) reqs
  in
  let t0 = Unix.gettimeofday () in
  let rec go reps =
    if List.length reps >= 2 && Unix.gettimeofday () -. t0 >= 3. then reps
    else go (once () :: reps)
  in
  go []

(* The reference replies, whether all replays agreed byte for byte, and
   the in-process time of the script: the sum over requests of each
   request's fastest replay.  The host slows down by up to 2x for seconds
   at a time, which is why replays run both before and after the timed
   phase. *)
let reference reps =
  let replies = Array.map fst (List.hd reps) in
  let same = List.for_all (fun rep -> Array.map fst rep = replies) reps in
  let time i =
    List.fold_left (fun m rep -> Float.min m (snd rep.(i))) Float.infinity reps
  in
  (replies, same, Array.fold_left ( +. ) 0. (Array.init (Array.length replies) time))

type traced = {
  t_replies : string list array;
  in_proc_ms : float list;  (* per request: frame + parse + handle + encode *)
  by_outcome : (string * float) list;  (* outcome, handle seconds *)
  parse : float list;  (* per line, seconds *)
  encode : float list;
  frame : float list;  (* per line *)
  bytes : float list;
  timed_s : float;  (* sum of the timed calls *)
  wall_s : float;
  warm_reused : int;
  warm_rerouted : int;
}

let traced_replay config (warm : request list) (reqs : request array) =
  let sink = Telemetry.make_sink () in
  Telemetry.install sink;
  Fun.protect ~finally:Telemetry.uninstall @@ fun () ->
  let server = Server.create config in
  List.iter
    (fun r -> List.iter (fun l -> ignore (Server.handle_line server l)) r.lines)
    warm;
  let frame = Frame.create () in
  let parse = ref [] and encode = ref [] and frames = ref [] and bytes = ref [] in
  let in_proc = ref [] and by_outcome = ref [] in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let one r =
    let tick = Server.current_tick server and near, _ = Server.near_hit_counts server in
    let (), feed_s =
      Kit.time (fun () ->
          Frame.feed frame (String.concat "" (List.map (fun l -> l ^ "\n") r.lines)))
    in
    (* (frame, parse + encode, handle) seconds and the reply lines *)
    let rec lines frame_s codec_s handle_s acc =
      match Kit.time (fun () -> Frame.next frame) with
      | None, dt -> (frame_s +. dt, codec_s, handle_s, List.rev acc)
      | Some (Frame.Oversized _), _ -> Kit.die "oversized request line"
      | Some (Frame.Line l), dt ->
        let req, p = Kit.time (fun () -> P.request_of_line l) in
        let resp, h =
          Kit.time (fun () ->
              match req with
              | Ok req -> Server.handle server req
              | Error message -> P.Bad_request { id = None; message })
        in
        let line, e = Kit.time (fun () -> P.response_to_line resp) in
        parse := p :: !parse;
        encode := e :: !encode;
        bytes := float_of_int (String.length line + 1) :: !bytes;
        lines (frame_s +. dt) (codec_s +. p +. e) (handle_s +. h) (line :: acc)
    in
    let frame_s, codec_s, handle_s, replies = lines feed_s 0. 0. [] in
    let per_line = frame_s /. float_of_int (List.length replies) in
    List.iter (fun _ -> frames := per_line :: !frames) replies;
    let outcome =
      match r.kind with
      | Repair -> "repair"
      | _ ->
        if Server.current_tick server = tick then "hit"
        else if fst (Server.near_hit_counts server) > near then "near-hit"
        else "done"
    in
    by_outcome := (outcome, handle_s) :: !by_outcome;
    in_proc := ((frame_s +. codec_s +. handle_s) *. 1000.) :: !in_proc;
    replies
  in
  let t_replies = Array.map one reqs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let sum l = List.fold_left ( +. ) 0. l in
  {
    t_replies;
    in_proc_ms = !in_proc;
    by_outcome = !by_outcome;
    parse = !parse;
    encode = !encode;
    frame = !frames;
    bytes = !bytes;
    timed_s = sum !in_proc /. 1000.;
    wall_s;
    warm_reused = Telemetry.counter_total sink ~cat:"warm" "reused";
    warm_rerouted = Telemetry.counter_total sink ~cat:"warm" "rerouted";
  }

(* --- the workload --- *)

let rec json_at path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (json_at rest)

let num path j =
  match json_at path j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.

let is_final line =
  match P.response_of_line line with
  | Ok (P.Job_result _ | P.Repair_result _) -> true
  | _ -> false

let run (args : Kit.args) =
  (* a dead server must surface as EPIPE, and the exit handler reap it *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let shape = if args.workload = "serve-hot" then hot else churn in
  (* Set-up: inputs, server spawn to port-ready, cache warm-up.  Done
     three times; the median is reported and the last server kept. *)
  let setup k =
    Kit.time (fun () ->
        let warm, timed = script args shape in
        let srv = spawn args shape k in
        List.iter
          (fun r -> List.iter (fun l -> ignore (roundtrip srv.conns.(0) l)) r.lines)
          warm;
        (warm, Array.of_list timed, srv))
  in
  let rec setups k times =
    let ((_, _, srv) as s), dt = setup k in
    if k = 2 then (s, Kit.median (dt :: times))
    else begin
      stop srv;
      setups (k + 1) (dt :: times)
    end
  in
  let (warm, reqs, srv), setup_s = setups 0 [] in
  let early = replays shape.config warm reqs in
  let tcp = open_loop srv reqs in
  let stats =
    match P.response_of_line (roundtrip srv.conns.(0) (P.request_to_line P.Stats)) with
    | Ok (P.Stats_reply j) -> j
    | _ -> Kit.die "bad stats reply"
  in
  let server_rss = Kit.peak_rss_mb (string_of_int srv.pid) in
  stop srv;
  let ref_replies, deterministic, synth_s =
    reference (early @ replays shape.config warm reqs)
  in
  let n = Array.length reqs in
  let failed = ref 0 in
  Array.iteri
    (fun i expected ->
      let ok =
        tcp.latency_ms.(i) <> None
        && tcp.replies.(i) = expected
        && List.exists is_final expected
      in
      if not ok then begin
        incr failed;
        Printf.eprintf "perfbench: request %d failed: got [%s], expected [%s]\n%!"
          i (String.concat " | " tcp.replies.(i)) (String.concat " | " expected)
      end)
    ref_replies;
  if not deterministic then begin
    prerr_endline "perfbench: in-process replays of the script disagree";
    failed := n
  end;
  let latencies = Array.to_list tcp.latency_ms |> List.filter_map Fun.id in
  let latencies = if latencies = [] then [ Float.infinity ] else latencies in
  let p50 = Kit.percentile latencies 0.5 and p99 = Kit.percentile latencies 0.99 in
  Kit.report_pct "p50_ms" p50;
  Kit.report_pct "p99_ms" p99;
  let payloads =
    Array.to_list tcp.replies
    |> List.concat_map (List.filter_map (fun l ->
           match P.response_of_line l with
           | Ok (P.Job_result { result; _ }) -> Some result
           | _ -> None))
  in
  (* Medians: a few assays route with long detours, and a mean over the
     payloads would follow them. *)
  let median_of k = Kit.median (List.map (num [ k ]) payloads) in
  let e2e =
    [
      Kit.m "setup_s" "s" setup_s;
      Kit.m "synth_s" "s" synth_s;
      Kit.m "p50_ms" "ms" p50.value;
      Kit.m "makespan_s" "assay_s" (median_of "execution_time_s");
      Kit.m "channel_mm" "mm" (median_of "channel_length_mm");
      Kit.m "utilization" "ratio" (median_of "utilization");
      Kit.m "peak_rss_mb" "MB" server_rss;
    ]
  in
  let layers =
    if not args.trace then []
    else begin
      let t = traced_replay shape.config warm reqs in
      Array.iteri
        (fun i r ->
          if r <> ref_replies.(i) then begin
            incr failed;
            Printf.eprintf "perfbench: traced replay differs on request %d\n%!" i
          end)
        t.t_replies;
      let med l = if l = [] then 0. else Kit.median l in
      let outcome o =
        List.filter_map (fun (k, s) -> if k = o then Some s else None) t.by_outcome
      in
      let in_proc_p50 = Kit.percentile t.in_proc_ms 0.5
      and in_proc_p99 = Kit.percentile t.in_proc_ms 0.99 in
      let computed = num [ "computed" ] stats in
      [
        ("bench.p99_ms", p99.value);
        ("protocol.parse_us", Kit.mean t.parse *. 1e6);
        ("protocol.encode_us", Kit.mean t.encode *. 1e6);
        ("protocol.bytes_out", Kit.mean t.bytes);
        ("frame.us_per_line", Kit.mean t.frame *. 1e6);
        ("server.hit_us", med (outcome "hit") *. 1e6);
        ("server.compute_ms", med (outcome "done") *. 1e3);
        ("server.warm_ms", med (outcome "near-hit") *. 1e3);
        ("server.repair_ms", med (outcome "repair") *. 1e3);
        ( "cache.hit_ratio",
          Kit.ratio (num [ "cache"; "hits" ] stats)
            (num [ "cache"; "hits" ] stats +. num [ "cache"; "misses" ] stats) );
        ("cache.evictions", num [ "cache"; "evictions" ] stats);
        ("near.hit_ratio", Kit.ratio (num [ "near"; "hits" ] stats) computed);
        ("warm.fallbacks", num [ "near"; "fallbacks" ] stats);
        ( "warm.reuse_ratio",
          Kit.ratio (float_of_int t.warm_reused)
            (float_of_int (t.warm_reused + t.warm_rerouted)) );
        ("net.gap_p50_ms", p50.value -. in_proc_p50.value);
        ("net.gap_p99_ms", p99.value -. in_proc_p99.value);
        ("server.cpu_ms_per_req", tcp.cpu_s *. 1000. /. float_of_int n);
        ("server.queue_wait_p99", num [ "queue_wait"; "p99" ] stats);
        ("bench.gen_lag_p99_ms", (Kit.percentile tcp.lag_ms 0.99).value);
        ("bench.traced_pass_s", t.wall_s);
        ("bench.unaccounted_frac", 1. -. Kit.ratio t.timed_s t.wall_s);
        ("bench.trace_overhead_frac", Kit.ratio t.timed_s synth_s -. 1.);
      ]
    end
  in
  { Kit.e2e; layers; attempted = n; failed = min n !failed }
