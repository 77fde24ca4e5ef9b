(** Deterministic bounded priority queue with admission control.

    The serving layer's waiting room.  Time is {e virtual}: the server
    advances a tick per dispatched batch, so deadlines and shedding are
    pure functions of the request sequence — never of wall-clock — and a
    replay of the same script is bit-for-bit reproducible at any
    [--jobs] value.

    Ordering.  Jobs dispatch by (priority descending, submission order
    ascending): higher [priority] wins, FIFO among equals.

    Admission.  The queue holds at most [depth] jobs.  A submission to a
    full queue either {e displaces} the weakest queued job — the last in
    dispatch order, i.e. lowest priority, latest submitted — when the
    newcomer's priority is strictly higher, or is rejected with a
    reason.  Shed-lowest-first keeps the queue's total priority mass
    maximal under overload.

    Deadlines.  A job submitted at tick [t] with [deadline d] must be
    dispatched by tick [t + d]; {!pop_batch} at a later tick sheds it
    instead of running it. *)

type 'a item = {
  id : string;
  priority : int;
  submitted : int;   (** tick at submission *)
  seq : int;         (** global submission index — the FIFO tie-break *)
  deadline : int option;
  payload : 'a;
}

type 'a t

val create : depth:int -> unit -> 'a t
(** @raise Invalid_argument if [depth < 1]. *)

val depth : 'a t -> int
val length : 'a t -> int

type 'a admission =
  | Admitted
  | Displaced of 'a item  (** the shed weakest job; newcomer admitted *)
  | Refused of string     (** reason; newcomer not queued *)

val submit :
  'a t -> now:int -> id:string -> priority:int -> ?deadline:int -> 'a ->
  'a admission

val pop_batch : 'a t -> now:int -> max:int -> 'a item list * 'a item list
(** [pop_batch q ~now ~max] removes and returns
    [(dispatched, expired)]: first every queued job whose deadline has
    passed at [now] (in dispatch order), then up to [max] jobs to run,
    in dispatch order.  Expired jobs do not count against [max]. *)

val position : 'a t -> string -> int option
(** 0-based dispatch position of a job id, if queued. *)
