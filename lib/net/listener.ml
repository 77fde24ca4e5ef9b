module P = Mfb_server.Protocol
module Server = Mfb_server.Server

type config = {
  host : string;
  port : int;
  max_conns : int;
  port_file : string option;
}

let default_config =
  { host = "127.0.0.1"; port = 0; max_conns = 64; port_file = None }

(* Unflushed reply bytes beyond which a connection is not read. *)
let max_pending_out = 4 * 1024 * 1024

(* The one rendering of the oversized-line error, for every transport. *)
let answer handle = function
  | Frame.Line line -> handle line
  | Frame.Oversized len ->
    Some
      (P.response_to_line
         (P.Bad_request
            {
              id = None;
              message =
                Printf.sprintf
                  "input line too long: %d bytes exceeds the %d-byte limit"
                  len P.default_max_line_bytes;
            }))

(* A peer vanishing mid-write must surface as EPIPE, never a signal. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let run_channels ~stop handle ic oc =
  ignore_sigpipe ();
  let frame = Frame.create () in
  (* A reply the peer can no longer read is logged and ends the loop;
     the work itself (cache fills, counters, access log) has already
     happened.  Closing the channel drops the unwritten bytes, so the
     flush at exit has nothing left to fail on. *)
  let write reply =
    match
      output_string oc reply;
      output_char oc '\n';
      flush oc
    with
    | () -> true
    | exception
        (Sys_error _ | Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _)) ->
      close_out_noerr oc;
      Printf.eprintf
        "dcsa-serve: client disconnected; dropped reply (%d bytes)\n%!"
        (String.length reply + 1);
      false
  in
  let rec loop () =
    if not (stop ()) then
      match Frame.read frame ic with
      | None -> ()
      | Some ev ->
        (match answer handle ev with
         | Some reply -> if write reply then loop ()
         | None -> loop ())
  in
  loop ()

(* One client connection: inbound frames, outbound bytes not yet
   accepted by the kernel.  [out]/[out_pos] form a drain buffer — the
   unflushed span is out[out_pos ..]; when it exceeds the config bound
   the connection stops being selected for read (backpressure). *)
type conn = {
  fd : Unix.file_descr;
  cid : int;  (* monotonically assigned, for log lines *)
  frame : Frame.t;
  out : Buffer.t;
  mutable out_pos : int;
  mutable half_closed : bool;  (* peer sent EOF; still flushing replies *)
  mutable pending_replies : int;  (* replies buffered but not flushed *)
}

let pending_out c = Buffer.length c.out - c.out_pos

let run cfg server =
  if cfg.max_conns < 1 then invalid_arg "Listener.run: max_conns < 1";
  ignore_sigpipe ();
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock
    (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen lsock 128;
  Unix.set_nonblock lsock;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  (match cfg.port_file with
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         Printf.fprintf oc "%d\n" port)
   | None -> ());
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  (* true once a shutdown request has been handled: stop accepting and
     reading, flush what we owe, then leave the loop *)
  let stopping = ref false in
  let close_conn c =
    let dropped = pending_out c in
    if dropped > 0 then
      Printf.eprintf
        "dcsa-serve: client #%d disconnected with %d unread reply bytes \
         (%d replies dropped)\n%!"
        c.cid dropped c.pending_replies;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove conns c.fd
  in
  let respond c line =
    Buffer.add_string c.out line;
    Buffer.add_char c.out '\n';
    c.pending_replies <- c.pending_replies + 1
  in
  let handle = Server.handle_line server in
  let handle_event c ev =
    (match answer handle ev with
     | Some reply -> respond c reply
     | None -> ());
    if Server.shutting_down server then stopping := true
  in
  let drain_frames c =
    let rec go () =
      if not !stopping then
        match Frame.next c.frame with
        | Some ev ->
          handle_event c ev;
          go ()
        | None -> ()
    in
    go ()
  in
  let chunk = Bytes.create 65536 in
  let handle_read c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      c.half_closed <- true;
      Frame.close c.frame;
      drain_frames c;
      if pending_out c = 0 then close_conn c
    | n ->
      Frame.feed_bytes c.frame chunk n;
      drain_frames c
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error _ ->
      (* ECONNRESET and friends: the connection is gone *)
      close_conn c
  in
  let handle_write c =
    let len = pending_out c in
    if len > 0 then begin
      match
        Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos len
      with
      | n ->
        c.out_pos <- c.out_pos + n;
        if c.out_pos = Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0;
          c.pending_replies <- 0;
          if c.half_closed then close_conn c
        end
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
      | exception Unix.Unix_error _ -> close_conn c
    end
    else if c.half_closed then close_conn c
  in
  let accept_conns () =
    let rec go () =
      if Hashtbl.length conns < cfg.max_conns then
        match Unix.accept ~cloexec:true lsock with
        | fd, _ ->
          Unix.set_nonblock fd;
          incr next_cid;
          Hashtbl.add conns fd
            {
              fd;
              cid = !next_cid;
              frame = Frame.create ();
              out = Buffer.create 1024;
              out_pos = 0;
              half_closed = false;
              pending_replies = 0;
            };
          go ()
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
        | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> go ()
    in
    go ()
  in
  (* After shutdown, clients get a bounded grace period to drain the
     replies they are owed; a stuck reader forfeits its bytes. *)
  let drain_deadline = ref None in
  let finished () =
    !stopping
    &&
    match !drain_deadline with
    | None ->
      drain_deadline := Some (Unix.gettimeofday () +. 5.0);
      Hashtbl.fold (fun _ c acc -> acc && pending_out c = 0) conns true
    | Some dl ->
      Unix.gettimeofday () >= dl
      || Hashtbl.fold (fun _ c acc -> acc && pending_out c = 0) conns true
  in
  let rec loop () =
    if not (finished ()) then begin
      let readable =
        (if (not !stopping) && Hashtbl.length conns < cfg.max_conns then
           [ lsock ]
         else [])
        @ Hashtbl.fold
            (fun fd c acc ->
              if
                (not !stopping) && (not c.half_closed)
                && pending_out c <= max_pending_out
              then fd :: acc
              else acc)
            conns []
      in
      let writable =
        Hashtbl.fold
          (fun fd c acc -> if pending_out c > 0 then fd :: acc else acc)
          conns []
      in
      let timeout = if !stopping then 0.1 else 1.0 in
      match Unix.select readable writable [] timeout with
      | rs, ws, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> handle_write c
            | None -> ())
          ws;
        List.iter
          (fun fd ->
            if fd = lsock then accept_conns ()
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> handle_read c
              | None -> ())
          rs;
        (* opportunistic flush: most replies fit the socket buffer, so
           draining now saves a select round-trip per response *)
        Hashtbl.iter
          (fun _ c -> if pending_out c > 0 then handle_write c)
          (Hashtbl.copy conns);
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  Hashtbl.iter (fun _ c -> close_conn c) (Hashtbl.copy conns);
  (try Unix.close lsock with Unix.Unix_error _ -> ())
