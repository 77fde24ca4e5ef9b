(** Typed client helper for the synthesis service, used by the load
    generators and the unit tests.

    {!call} drives a {!Server.t} living in this process through the
    same {!Server.handle_line} path the stdio and TCP transports use:
    the request is serialized to its protocol line and the response
    line parsed back, so every round trip exercises the wire format.
    Scripts that talk to a separate process speak the line protocol
    directly ([dcsa_synth client] relays it over TCP). *)

type t

val in_process : Server.t -> t
(** Wrap a server living in this process. *)

val call : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request, return its response.  [Error _] on a malformed
    response line or a request the server answered with silence. *)
