(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic parts of the synthesis flow (synthetic benchmark
    generation, simulated annealing) draw from this generator so that every
    experiment is reproducible bit-for-bit from its seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val split_n : t -> int -> t array
(** [split_n rng n] derives [n] independent generators, each seeded
    with the next draw of [rng], advancing [rng] [n] times.  This is
    the dispatch side of the split-then-reduce discipline used by the
    parallel synthesis entry points: child generators are derived
    {e sequentially, before} any task is handed to a {!Pool} worker, so
    the stream seen by task [i] depends only on the master seed and on
    [i] — never on how many domains execute the tasks.
    @raise Invalid_argument if [n < 0]. *)
