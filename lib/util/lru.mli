(** Generic size-bounded LRU cache.

    The serving layer memoises expensive pure computations (full
    synthesis runs keyed by a content-addressed request hash); this is
    the bounded map underneath.  Entries are evicted strictly
    least-recently-used first, where "use" is a {!find} hit or an
    {!add}.  The structure is deterministic: for any sequence of
    operations the set of resident keys, the eviction order, and the
    {!stats} counters are pure functions of that sequence.

    Not domain-safe — confine one cache to one domain (the server owns
    its cache on the dispatching domain; pool workers never touch it). *)

type ('k, 'v) t

type stats = {
  hits : int;        (** [find] calls that returned a value *)
  misses : int;      (** [find] calls that returned [None] *)
  evictions : int;   (** entries dropped by capacity pressure *)
}

val create : capacity:int -> unit -> ('k, 'v) t
(** [create ~capacity ()] is an empty cache holding at most [capacity]
    entries.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** [find t k] returns the cached value and marks [k] most recently
    used; counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** [add t k v] binds [k] to [v] as the most recently used entry,
    replacing any previous binding of [k].  When the cache is full the
    least-recently-used entry is evicted (counted). *)

val stats : ('k, 'v) t -> stats

val bindings : ('k, 'v) t -> ('k * 'v) list
(** Resident bindings, most recently used first.  A walk, not a use:
    recency and counters are left as they were. *)
