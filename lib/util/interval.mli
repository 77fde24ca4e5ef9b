(** Half-open time intervals [\[lo, hi)] over floats.

    Intervals model occupation slots of components and routing cells.  The
    half-open convention means an interval ending at [t] does not conflict
    with one starting at [t]. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi] is the interval [\[lo, hi)].
    @raise Invalid_argument if [hi < lo] or either bound is not finite. *)

val lo : t -> float
val hi : t -> float

val duration : t -> float

val is_empty : t -> bool
(** [is_empty iv] is true when [lo = hi]. *)

val overlaps : t -> t -> bool
(** [overlaps a b] is true when the open intersection of [a] and [b] is
    non-empty.  Empty intervals overlap nothing. *)

val contains : t -> float -> bool
(** [contains iv t] is [lo <= t < hi]. *)

val shift : t -> float -> t
(** [shift iv dt] translates both bounds by [dt]. *)

val compare : t -> t -> int
(** Lexicographic order on [(lo, hi)]. *)

val pp : Format.formatter -> t -> unit
