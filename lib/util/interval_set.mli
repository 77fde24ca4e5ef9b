(** Ordered collections of disjoint-or-not time slots.

    An interval set records the occupation history of a resource (a routing
    cell, a component).  Insertion keeps the list sorted by start time;
    membership queries answer "is the resource free over [iv]?". *)

type t

val empty : t

val is_empty : t -> bool

val add : Interval.t -> t -> t
(** [add iv s] inserts [iv]; empty intervals are ignored.  Overlapping
    intervals are allowed to coexist (occupation by the same task chain). *)

val overlaps : Interval.t -> t -> bool
(** [overlaps iv s] is true when some stored interval overlaps [iv]. *)

val free_from : float -> duration:float -> t -> float
(** [free_from t ~duration s] is the earliest [t' >= t] such that
    [\[t', t' + duration)] overlaps nothing in [s]. *)

val pp : Format.formatter -> t -> unit
