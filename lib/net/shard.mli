(** Consistent-hash sharding of {!Mfb_server.Cache_key}s across fleet
    slots.

    Each live slot owns a stable arc of a 64-bit hash ring: a key maps
    to the slot whose nearest clockwise ring point covers the key's
    hash.  Every slot contributes [replicas] pseudo-random points
    (FNV-1a of ["slot:replica"], the same hash family as the keys), so
    arcs are spread evenly and — the property that makes this the right
    router for a sharded cache — {e removing a slot remaps only the keys
    that slot owned}.  Every other key keeps its owner, so the surviving
    workers' compute/cache partitions are undisturbed when a fleet
    member dies.

    Rings are immutable; {!remove} returns a new ring.  Lookup is a
    binary search: O(log (slots × replicas)). *)

type t

val create : ?replicas:int -> slots:int -> unit -> t
(** Ring over slot ids [0 .. slots-1].  [replicas] (default 64) is the
    number of ring points per slot.
    @raise Invalid_argument on [slots < 1] or [replicas < 1]. *)

val of_slots : ?replicas:int -> int list -> t
(** Ring over an explicit set of slot ids (duplicates ignored).
    @raise Invalid_argument on an empty list or [replicas < 1]. *)

val slots : t -> int list
(** Live slot ids, ascending. *)

val remove : t -> int -> t
(** Ring without the given slot; only that slot's keys remap.
    @raise Invalid_argument when removing the last slot or an id not in
    the ring. *)

val slot_of_hash : t -> int64 -> int
(** Owner of an arbitrary 64-bit hash (unsigned ring order). *)

val slot_of_key : t -> Mfb_server.Cache_key.t -> int
(** Owner of a cache key — the fleet member that should compute and
    cache it. *)
