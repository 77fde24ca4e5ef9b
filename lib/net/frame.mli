(** Bounded line framing: the one reader for every request and reply
    line the serving tier takes from a pipe or a socket — stdio
    [serve], TCP connections, a worker's stdin and the supervisor's
    view of each worker's replies.

    - a frame is one newline-terminated line, newline stripped;
    - a line whose payload exceeds [max_bytes] (default
      {!Mfb_server.Protocol.default_max_line_bytes}, 1 MiB) is consumed
      {e whole} — the stream resynchronises at the next newline — and
      surfaces as [Oversized] carrying its full byte length, so the
      caller can answer with a structured error and keep serving;
    - a partial line pending at EOF is surfaced as a final [Line]
      rather than dropped.

    A socket event loop feeds raw chunks with {!feed} (or signals EOF
    with {!close}) and drains completed frames with {!next}, never
    blocking; a blocking reader calls {!read} on an [in_channel].
    Memory is bounded: at most [max_bytes] of the current partial line
    are retained, the rest of an oversized line is counted and
    discarded as it streams in. *)

type t

type event =
  | Line of string      (** complete line, newline stripped *)
  | Oversized of int    (** line over the cap; full byte length *)

val create : ?max_bytes:int -> unit -> t

val feed : t -> string -> unit
(** Append a received chunk.  @raise Invalid_argument after {!close}. *)

val feed_bytes : t -> bytes -> int -> unit
(** [feed_bytes t chunk n] appends the first [n] bytes of [chunk] —
    the natural shape after a [Unix.read]. *)

val close : t -> unit
(** Signal EOF: a pending partial line becomes a final frame.
    Idempotent. *)

val next : t -> event option
(** Pop the next completed frame, oldest first; [None] when every fed
    byte has been consumed or is part of a still-incomplete line. *)

val read : t -> in_channel -> event option
(** Blocking {!next}: feed [t] from the channel until a frame is
    complete; [None] once the channel is at EOF and every frame has been
    returned. *)
