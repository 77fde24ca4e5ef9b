(** The serving transports: the {!Mfb_server.Protocol} line protocol
    over a blocking channel pair (stdio [serve] and fleet workers) and
    over TCP sockets (one event loop, many concurrent clients).  Every
    inbound byte is framed by {!Frame} (1 MiB line cap, whole-line
    resync), and an oversized line is answered with the same structured
    error on every transport.

    {2 Blocking channels}

    {!run_channels} reads one line at a time and answers it before
    reading the next; a reply that cannot be written (the peer closed
    its read end) is logged on [stderr] and ends the loop — SIGPIPE is
    ignored, so a vanished peer never kills the process.

    {2 TCP execution model}

    A single [Unix.select] loop owns the listening socket and every
    client connection — no thread or process per client.  Complete
    request lines are handled by the shared {!Mfb_server.Server.t} in
    {e global arrival order} — so the cache, the job queue, request ids,
    the access log and the merged traces behave exactly as they do on
    the stdio path, with concurrency reduced to an interleaving of
    lines.  Client ids share one namespace across connections;
    concurrent clients should prefix their ids.

    {2 Backpressure}

    Two bounds compose with the queue's admission control (which already
    sheds with a structured reject when full):

    - a connection holding more than 4 MiB of unflushed reply bytes is
      no longer read from until the client drains its replies —
      per-connection flow control, the slow reader only stalls itself;
    - once [max_conns] connections are open, the listener stops
      accepting; further connectors wait in the kernel backlog.

    {2 Degradation}

    Mirrors the fleet dispatcher's discrimination between failure
    classes: a client disconnecting mid-request cancels nothing — the
    job completes, its reply is dropped cleanly (logged on [stderr],
    never a crash), cache and counters keep their deterministic values
    — and [EPIPE] / [ECONNRESET] on any one connection never takes down
    the listener.  A [shutdown] request from any client drains the
    queue, answers that client its [Goodbye], flushes every connection
    best-effort and stops the loop. *)

val run_channels :
  stop:(unit -> bool) ->
  (string -> string option) ->
  in_channel ->
  out_channel ->
  unit
(** [run_channels ~stop handle ic oc] answers each line read from [ic]
    with [handle line] ([None]: no reply) on [oc], flushing after every
    reply, until EOF, a failed write, or [stop ()] holds before the next
    read.  A partial final line (no trailing newline) is still handled. *)

type config = {
  host : string;            (** bind address, default ["127.0.0.1"] *)
  port : int;               (** [0] picks an ephemeral port *)
  max_conns : int;          (** accept gate *)
  port_file : string option;
      (** when set, the bound port is written there once listening —
          how scripts using [--tcp 0] learn the port *)
}

val default_config : config
(** localhost, ephemeral port, 64 connections, no port file. *)

val run : config -> Mfb_server.Server.t -> unit
(** Serve TCP clients until a [shutdown] request is handled.
    @raise Unix.Unix_error when the initial bind/listen fails (an
    occupied port is a startup error, not a degradation). *)
