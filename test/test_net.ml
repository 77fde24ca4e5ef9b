(* Tests for the TCP serving tier: the bounded line framer,
   interleaved multi-client determinism against the in-process server,
   and end-to-end socket behaviour of 'dcsa_synth serve --tcp'
   (byte-identity with stdio, distinct rids, surviving client
   disconnects). *)

module Json = Mfb_util.Json
module P = Mfb_server.Protocol
module Server = Mfb_server.Server
module Frame = Mfb_net.Frame
module Tcp_client = Mfb_net.Tcp_client

let qtest = Test_util.qtest

(* --- frame: incremental bounded line assembly --- *)

let drain fr =
  let rec go acc =
    match Frame.next fr with
    | Some ev -> go (ev :: acc)
    | None -> List.rev acc
  in
  go []

let test_frame_split_feeds () =
  let fr = Frame.create () in
  Frame.feed fr "hel";
  Alcotest.(check int) "no line yet" 0 (List.length (drain fr));
  Frame.feed fr "lo\nwor";
  (match drain fr with
   | [ Frame.Line "hello" ] -> ()
   | _ -> Alcotest.fail "expected [Line hello]");
  Frame.feed fr "ld\nx\n";
  (match drain fr with
   | [ Frame.Line "world"; Frame.Line "x" ] -> ()
   | _ -> Alcotest.fail "expected [world; x]")

let test_frame_oversized_resync () =
  let fr = Frame.create ~max_bytes:8 () in
  (* one oversized line, then a normal one: the framer must swallow
     the rest of the long line and resync at the newline *)
  Frame.feed fr (String.make 20 'a' ^ "\nok\n");
  (match drain fr with
   | [ Frame.Oversized 20; Frame.Line "ok" ] -> ()
   | [ Frame.Oversized n; Frame.Line "ok" ] ->
     Alcotest.failf "oversized carried %d, want 20" n
   | _ -> Alcotest.fail "expected [Oversized; Line ok]")

let test_frame_close_surfaces_partial () =
  let fr = Frame.create () in
  Frame.feed fr "partial";
  Frame.close fr;
  (match drain fr with
   | [ Frame.Line "partial" ] -> ()
   | _ -> Alcotest.fail "close must surface the final unterminated line")

(* --- interleaved multi-client streams vs one serialized stream ---

   The listener reduces TCP concurrency to an interleaving of request
   lines through the shared server, so the whole concurrency contract
   is: any interleaving of K clients' streams answers each line exactly
   as the same global sequence fed by a single client — modulo the id
   tokens.  This drives the queue's admission/displacement ordering
   through every interleaving qcheck can produce. *)

let submit_line ~id ~priority ~seed =
  P.request_to_line
    (P.Submit
       {
         id;
         priority;
         deadline = None;
         flow = `Ours;
         spec = P.Benchmark "PCR";
         overrides = { P.no_overrides with P.o_seed = Some seed };
         trace = None;
       })

let small_server () =
  Server.create
    {
      Server.default_config with
      queue_depth = 3;  (* tight, so displacement actually happens *)
      batch = 64;       (* nothing dispatches until demanded *)
      cache_capacity = 16;
    }

(* Replace every occurrence of [sub] in [s] with [by]. *)
let replace_all ~sub ~by s =
  let m = String.length sub in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - m do
    if String.sub s !i m = sub then begin
      Buffer.add_string buf by;
      i := !i + m
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

(* Replace every id token ("mc0q1" style or "sg3" style) by its global
   arrival position, so responses from differently-named runs become
   comparable.  Ids are substituted as JSON string tokens, which cannot
   collide with other payload content. *)
let canonicalize ids line =
  List.fold_left
    (fun acc (id, pos) ->
      replace_all
        ~sub:(Printf.sprintf "\"%s\"" id)
        ~by:(Printf.sprintf "\"<%d>\"" pos)
        acc)
    line ids

let interleave_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun k ->
    list_size (int_range 1 4) (pair (int_bound 3) (int_bound 9))
    |> list_repeat k
    >>= fun streams ->
    (* the schedule is a shuffled multiset of client indices *)
    let multiset =
      List.concat
        (List.mapi (fun c reqs -> List.map (fun _ -> c) reqs) streams)
    in
    shuffle_l multiset >>= fun schedule -> return (streams, schedule))

let prop_interleaving_matches_serialized =
  qtest ~count:40 "K interleaved clients = serialized, modulo ids"
    interleave_gen (fun (streams, schedule) ->
      let streams = Array.of_list (List.map Array.of_list streams) in
      let cursors = Array.make (Array.length streams) 0 in
      (* materialize the global arrival sequence from the schedule *)
      let arrivals =
        List.map
          (fun c ->
            let i = cursors.(c) in
            cursors.(c) <- i + 1;
            let priority, seed = streams.(c).(i) in
            (c, i, priority, seed))
          schedule
      in
      let run name_of =
        let server = small_server () in
        let ids =
          List.mapi (fun pos (c, i, _, _) -> (name_of pos c i, pos)) arrivals
        in
        let responses =
          List.map2
            (fun (id, _) (_, _, priority, seed) ->
              match Server.handle_line server (submit_line ~id ~priority ~seed)
              with
              | Some resp -> canonicalize ids resp
              | None -> "<none>")
            ids arrivals
        in
        let statuses =
          List.map
            (fun (id, _) ->
              match
                Server.handle_line server
                  (P.request_to_line (P.Status id))
              with
              | Some resp -> canonicalize ids resp
              | None -> "<none>")
            ids
        in
        let stats =
          match Server.handle_line server (P.request_to_line P.Stats) with
          | Some resp -> resp
          | None -> "<none>"
        in
        (responses, statuses, stats)
      in
      let multi = run (fun _pos c i -> Printf.sprintf "mc%dq%d" c i) in
      let serial = run (fun pos _c _i -> Printf.sprintf "sg%d" pos) in
      multi = serial)

(* --- end-to-end: serve --tcp over real sockets --- *)

let exe = "../bin/dcsa_synth.exe"

let temp_path suffix =
  let f = Filename.temp_file "mfb_net_test" suffix in
  Sys.remove f;
  f

let spawn_serve extra_args =
  let port_path = temp_path ".port" in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--tcp"; "0"; "--port-file"; port_path ] @ extra_args)
  in
  let pid = Unix.create_process exe argv null_in Unix.stdout null_out in
  Unix.close null_in;
  Unix.close null_out;
  match Tcp_client.wait_port_file ~timeout:30.0 port_path with
  | Ok port -> (pid, port, port_path)
  | Error e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    Alcotest.failf "serve --tcp did not come up: %s" e

type tconn = { fd : Unix.file_descr; fr : Frame.t }

let connect port = { fd = Tcp_client.connect_fd ~port (); fr = Frame.create () }

let send t line =
  let s = line ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring t.fd s !off (n - !off)
  done

let recv t =
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Frame.next t.fr with
    | Some (Frame.Line l) -> l
    | Some (Frame.Oversized n) -> Alcotest.failf "oversized reply (%d)" n
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "reply timeout";
      (match Unix.select [ t.fd ] [] [] 1.0 with
       | [], _, _ -> go ()
       | _ ->
         (match Unix.read t.fd buf 0 (Bytes.length buf) with
          | 0 -> Alcotest.fail "connection closed mid-reply"
          | k ->
            Frame.feed_bytes t.fr buf k;
            go ()))
  in
  go ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        Alcotest.fail "serve did not exit"
      end
      else begin
        Unix.sleepf 0.05;
        go ()
      end
    | _, status -> status
  in
  go ()

let test_tcp_concurrent_clients_match_stdio () =
  let access_path = temp_path ".jsonl" in
  let pid, port, port_path = spawn_serve [ "--access-log"; access_path ] in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove port_path with Sys_error _ -> ());
      try Sys.remove access_path with Sys_error _ -> ())
    (fun () ->
      let n_clients = 3 in
      let per_client = 3 in
      let conns = Array.init n_clients (fun _ -> connect port) in
      (* the global arrival order the stdio reference will replay *)
      let script = ref [] in
      let push line = script := line :: !script in
      (* interleave submits round-robin, then results round-robin —
         every client's replies must be byte-identical to the stdio
         server answering the same global line sequence *)
      let tcp_responses = Array.make (n_clients * per_client * 2) "" in
      let idx = ref 0 in
      for i = 0 to per_client - 1 do
        for c = 0 to n_clients - 1 do
          let line =
            submit_line
              ~id:(Printf.sprintf "c%dq%d" c i)
              ~priority:0
              ~seed:(100 + ((c + (i * n_clients)) mod 4))
          in
          push line;
          send conns.(c) line;
          tcp_responses.(!idx) <- recv conns.(c);
          incr idx
        done
      done;
      for i = 0 to per_client - 1 do
        for c = 0 to n_clients - 1 do
          let line =
            P.request_to_line (P.Result (Printf.sprintf "c%dq%d" c i))
          in
          push line;
          send conns.(c) line;
          tcp_responses.(!idx) <- recv conns.(c);
          incr idx
        done
      done;
      (* stdio reference: same lines, same order, one in-process server *)
      let reference =
        let server = Server.create Server.default_config in
        List.filter_map (Server.handle_line server) (List.rev !script)
      in
      List.iteri
        (fun i expect ->
          Alcotest.(check string)
            (Printf.sprintf "line %d matches stdio" i)
            expect
            tcp_responses.(i))
        reference;
      (* orderly shutdown through client 0 *)
      send conns.(0) (P.request_to_line P.Shutdown);
      let goodbye = recv conns.(0) in
      Alcotest.(check bool) "goodbye is a shutdown ack" true
        (match P.response_of_line goodbye with
         | Ok (P.Goodbye _) -> true
         | _ -> false);
      Array.iter close conns;
      (match wait_exit pid with
       | Unix.WEXITED 0 -> ()
       | Unix.WEXITED c -> Alcotest.failf "serve exited %d" c
       | _ -> Alcotest.fail "serve killed by signal");
      (* every request got its own rid, assigned in arrival order *)
      let rids =
        In_channel.with_open_text access_path In_channel.input_lines
        |> List.filter_map (fun l ->
               match Json.of_string l with
               | Ok j ->
                 (match Json.member "rid" j with
                  | Some (Json.String r) -> Some r
                  | _ -> None)
               | Error _ -> None)
      in
      Alcotest.(check int) "one rid per request"
        (n_clients * per_client)
        (List.length rids);
      Alcotest.(check int) "rids distinct"
        (List.length rids)
        (List.length (List.sort_uniq compare rids)))

let test_tcp_survives_client_disconnect () =
  let pid, port, port_path = spawn_serve [] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove port_path with Sys_error _ -> ())
    (fun () ->
      (* client 1 submits and demands a result, then vanishes without
         reading: the reply hits a dead connection *)
      let c1 = connect port in
      send c1 (submit_line ~id:"gone0" ~priority:0 ~seed:1);
      send c1 (P.request_to_line (P.Result "gone0"));
      close c1;
      (* the listener must still serve client 2 normally *)
      let c2 = connect port in
      send c2 (submit_line ~id:"alive0" ~priority:0 ~seed:2);
      (match P.response_of_line (recv c2) with
       | Ok (P.Submitted { id = "alive0"; _ }) -> ()
       | _ -> Alcotest.fail "second client not served after disconnect");
      send c2 (P.request_to_line P.Shutdown);
      ignore (recv c2);
      close c2;
      match wait_exit pid with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "serve exited %d" c
      | _ -> Alcotest.fail "serve killed by signal")

let suites =
  [
    ( "net.frame",
      [
        Alcotest.test_case "split feeds assemble lines" `Quick
          test_frame_split_feeds;
        Alcotest.test_case "oversized then resync" `Quick
          test_frame_oversized_resync;
        Alcotest.test_case "close surfaces partial line" `Quick
          test_frame_close_surfaces_partial;
      ] );
    ( "net.interleave",
      [ prop_interleaving_matches_serialized ] );
    ( "net.tcp",
      [
        Alcotest.test_case "concurrent clients match stdio bytes" `Quick
          test_tcp_concurrent_clients_match_stdio;
        Alcotest.test_case "survives client disconnect" `Quick
          test_tcp_survives_client_disconnect;
      ] );
  ]
