(** Union–find over integer elements [0 .. n-1] with path compression and
    union by rank.  Used to check connectivity of routed channel networks. *)

type t

val create : int -> t
(** [create n] is [n] singleton sets. *)

val find : t -> int -> int
(** Canonical representative. *)

val union : t -> int -> int -> unit
(** Merge the two sets. *)
