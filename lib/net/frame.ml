type event =
  | Line of string
  | Oversized of int

type t = {
  max_bytes : int;
  cur : Buffer.t;        (* current partial line, capped at max_bytes *)
  mutable over : int;    (* bytes discarded past the cap on this line *)
  ready : event Queue.t; (* completed frames, oldest first *)
  mutable closed : bool;
}

let create ?(max_bytes = Mfb_server.Protocol.default_max_line_bytes) () =
  if max_bytes < 1 then invalid_arg "Frame.create: max_bytes < 1";
  {
    max_bytes;
    cur = Buffer.create 256;
    over = 0;
    ready = Queue.create ();
    closed = false;
  }

let finish_line t =
  if t.over > 0 then begin
    Queue.add (Oversized (Buffer.length t.cur + t.over)) t.ready;
    t.over <- 0
  end
  else Queue.add (Line (Buffer.contents t.cur)) t.ready;
  Buffer.clear t.cur

let feed t s =
  if t.closed then invalid_arg "Frame.feed: closed";
  String.iter
    (fun c ->
      if c = '\n' then finish_line t
      else if t.over > 0 || Buffer.length t.cur >= t.max_bytes then
        t.over <- t.over + 1
      else Buffer.add_char t.cur c)
    s

let feed_bytes t chunk n = feed t (Bytes.sub_string chunk 0 n)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* partial line at EOF: surface it rather than drop it *)
    if t.over > 0 || Buffer.length t.cur > 0 then finish_line t
  end

let next t = Queue.take_opt t.ready

let rec read t ic =
  match next t with
  | Some _ as ev -> ev
  | None when t.closed -> None
  | None ->
    let chunk = Bytes.create 4096 in
    (match input ic chunk 0 (Bytes.length chunk) with
     | 0 -> close t
     | n -> feed_bytes t chunk n);
    read t ic
