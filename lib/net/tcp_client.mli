(** Client side of the TCP serving tier: connecting to a {!Listener}
    and the port-file handshake.  Callers speak the line protocol over
    the returned socket themselves — [dcsa_synth client] through
    channels, the load generators and the TCP tests through their own
    event loops and a {!Frame} per connection. *)

val connect_fd : ?host:string -> port:int -> unit -> Unix.file_descr
(** Blocking connect to [host] (default ["127.0.0.1"]); returns the
    connected socket.
    @raise Unix.Unix_error (e.g. [ECONNREFUSED]) when the listener is
    not there. *)

val wait_port_file : ?timeout:float -> string -> (int, string) result
(** Poll a {!Listener} [port_file] until it holds a port number —
    the handshake for scripts that start [serve --tcp 0] in the
    background.  [timeout] defaults to 30 s. *)
