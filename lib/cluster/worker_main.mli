(** The worker servant: body of the [dcsa_synth worker] subcommand.

    A worker is a stripped-down synchronous responder speaking a subset
    of the service {!Mfb_server.Protocol} over its stdin/stdout, one
    line in, one line out:

    - [submit] resolves the spec against the worker's base config
      (which must match the dispatching server's — the CLI forwards
      [--tc]/[--seed]/[--sa-restarts]), runs the flow with [jobs = 1],
      and answers with a [result] response carrying the deterministic
      summary payload;
    - [stats] is the heartbeat: answered immediately with the worker's
      slot index and jobs-done count;
    - [shutdown] answers [Goodbye] and returns;
    - anything else gets an [error] response and the loop continues.

    Lines are read and answered by {!Mfb_net.Listener.run_channels},
    the loop stdio [serve] runs: an oversized line gets the same
    [error] bytes as on [serve], and a reply the supervisor can no
    longer read (closed pipe) is logged and ends the loop instead of
    killing the process with SIGPIPE.

    When a {!Fault.plan} is given, the worker consults it before
    answering each [submit] (job indices count submits only, since this
    process started) and misbehaves accordingly; [Crash], [Stall] and
    [Truncate] terminate the process with exit code 3. *)

val run :
  ?fault:Fault.plan ->
  ?index:int ->
  ?vclock:bool ->
  config:Mfb_core.Config.t ->
  in_channel ->
  out_channel ->
  unit
(** [run ~config ic oc] serves until [shutdown] or EOF.  [index]
    (default 0) is the worker's fleet slot, used for fault lookup and
    reported in heartbeats.

    A [submit] carrying a ["trace"] field runs under a fresh
    per-request telemetry sink and ships its span forest back in the
    reply's ["spans"] field; with [vclock] (default [false]) that sink's
    clock is frozen at 0 so the shipped tree is deterministic — the
    serving tier passes it whenever it runs on the virtual clock. *)
