(** Mutable binary-heap priority queue.

    Elements are ordered by a user-supplied comparison on priorities; the
    element whose priority compares smallest is popped first.  Use
    [~cmp:(fun a b -> compare b a)] for a max-queue. *)

type ('p, 'a) t

val create : cmp:('p -> 'p -> int) -> ('p, 'a) t
(** [create ~cmp] is an empty queue ordered by [cmp] on priorities. *)

val length : ('p, 'a) t -> int

val push : ('p, 'a) t -> 'p -> 'a -> unit
(** [push q p x] inserts [x] with priority [p]. *)

val pop : ('p, 'a) t -> ('p * 'a) option
(** [pop q] removes and returns the minimum-priority binding, or [None]
    when [q] is empty. *)
