(** Routing nets derived from a schedule.

    A net groups all transportation tasks between one unordered pair of
    components; its connection priority (paper Eq. 4) rewards placing the
    pair close together when their tasks run concurrently with many others
    or carry hard-to-wash fluids. *)

type task = {
  transport : Mfb_schedule.Types.transport;
  concurrency : int;   (** nt_k: transports overlapping this one in time *)
  wash_time : float;   (** wt_k: wash time of the transported fluid *)
}

type t = {
  a : int;  (** lower component id *)
  b : int;  (** higher component id *)
  tasks : task list;  (** sorted by departure time *)
}

val of_schedule : Mfb_schedule.Types.t -> t list
(** All nets of a schedule, sorted by [(a, b)]. *)

val connection_priority : beta:float -> gamma:float -> t -> float
(** Paper Eq. 4: [sum_k (beta * nt_k + gamma * wt_k)]. *)
