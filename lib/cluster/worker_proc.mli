(** Handle to one spawned worker process.

    Wraps the child's pid and its stdin/stdout pipes with the
    fault-aware I/O the dispatcher needs: EPIPE-safe line writes,
    deadline-bounded line reads (so a stalled worker costs a timeout,
    never a hang), a [stats]-based heartbeat, and SIGKILL teardown.

    Replies are framed per handle by {!Mfb_net.Frame}, the reader every
    other transport uses: bytes after the first newline are kept for
    the next read, a reply over the 1 MiB line cap is consumed whole and
    reported once as [Oversized], and a partial line at EOF is surfaced
    as a line (which then fails to parse — exactly how a [Truncate]
    fault becomes visible). *)

type t

type read_result =
  | Line of string  (** next line, newline stripped *)
  | Oversized of int
      (** next line exceeded the line cap; carries its full byte length *)
  | Timeout         (** deadline elapsed with no complete line *)
  | Eof             (** worker closed its stdout (crash or exit) *)

val spawn : slot:int -> string array -> t
(** [spawn ~slot argv] starts [argv.(0)] with stdin/stdout piped to this
    handle (stderr inherited).  Parent-side pipe ends are close-on-exec,
    so later-spawned siblings cannot keep a dead worker's pipes alive
    and crashes are detected as EOF, not as timeouts.
    @raise Invalid_argument on empty [argv]. *)

val slot : t -> int
val pid : t -> int

val send_line : t -> string -> (unit, string) result
(** Write one request line and flush.  [Error _] when the worker is gone
    (EPIPE et al.) — the caller treats that as a worker fault. *)

val recv_line : timeout:float -> t -> read_result
(** Wait up to [timeout] seconds (wall clock) for the next newline. *)

val ping : timeout:float -> t -> bool
(** Heartbeat: send [{"op":"stats"}] and check that a well-formed stats
    response arrives within [timeout]. *)

val reap_if_dead : t -> bool
(** Non-blocking [waitpid]: true when the child has exited (the handle
    is marked dead but pipes stay readable for draining). *)

val kill : t -> unit
(** SIGKILL, reap, close both pipes.  Idempotent. *)
