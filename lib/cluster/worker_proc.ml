module Frame = Mfb_net.Frame

type t = {
  slot_ : int;
  pid_ : int;
  to_worker : out_channel;
  from_worker : Unix.file_descr;
  frame : Frame.t;  (* reply bytes read past the last returned line *)
  mutable alive : bool;
  mutable reaped : bool;
  mutable closed : bool;
}

type read_result = Line of string | Oversized of int | Timeout | Eof

let spawn ~slot argv =
  if Array.length argv = 0 then invalid_arg "Worker_proc.spawn: empty argv";
  (* cloexec on every end: create_process dup2s the child ends onto the
     child's stdio (dup2 clears the flag), so the child sees plain
     stdin/stdout while no sibling spawned later inherits these pipes —
     keeping EOF-on-crash detection sharp. *)
  let in_read, in_write = Unix.pipe ~cloexec:true () in
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process argv.(0) argv in_read out_write Unix.stderr
  in
  Unix.close in_read;
  Unix.close out_write;
  {
    slot_ = slot;
    pid_ = pid;
    to_worker = Unix.out_channel_of_descr in_write;
    from_worker = out_read;
    frame = Frame.create ();
    alive = true;
    reaped = false;
    closed = false;
  }

let slot t = t.slot_
let pid t = t.pid_

let send_line t line =
  if not t.alive then Error "worker is dead"
  else
    match
      output_string t.to_worker line;
      output_char t.to_worker '\n';
      flush t.to_worker
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let of_event = function
  | Frame.Line line -> Line line
  | Frame.Oversized n -> Oversized n

let recv_line ~timeout t =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Frame.next t.frame with
    | Some ev -> of_event ev
    | None ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then Timeout
      else
        match Unix.select [ t.from_worker ] [] [] remaining with
        | [], _, _ -> Timeout
        | _ ->
          (match Unix.read t.from_worker chunk 0 (Bytes.length chunk) with
           | 0 ->
             (* a partial line at EOF surfaces first, then EOF *)
             Frame.close t.frame;
             Option.fold ~none:Eof ~some:of_event (Frame.next t.frame)
           | n ->
             Frame.feed_bytes t.frame chunk n;
             go ()
           | exception Unix.Unix_error ((Unix.EBADF | Unix.EPIPE), _, _) ->
             Eof)
  in
  go ()

let ping ~timeout t =
  match send_line t Mfb_server.Protocol.(request_to_line Stats) with
  | Error _ -> false
  | Ok () ->
    (match recv_line ~timeout t with
     | Line line ->
       (match Mfb_server.Protocol.response_of_line line with
        | Ok (Mfb_server.Protocol.Stats_reply _) -> true
        | _ -> false)
     | Oversized _ | Timeout | Eof -> false)

let reap t ~blocking =
  if not t.reaped then begin
    let flags = if blocking then [] else [ Unix.WNOHANG ] in
    match Unix.waitpid flags t.pid_ with
    | 0, _ -> ()
    | _, _ -> t.reaped <- true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.reaped <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

let reap_if_dead t =
  reap t ~blocking:false;
  if t.reaped then t.alive <- false;
  t.reaped

let kill t =
  if not t.closed then begin
    t.closed <- true;
    t.alive <- false;
    if not t.reaped then
      (try Unix.kill t.pid_ Sys.sigkill with Unix.Unix_error _ -> ());
    reap t ~blocking:true;
    close_out_noerr t.to_worker;
    (try Unix.close t.from_worker with Unix.Unix_error _ -> ())
  end
