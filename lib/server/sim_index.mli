(** Similarity index over cached synthesis requests — the lookup side of
    the warm-start cache.

    {!Cache_key} folds the whole request into one word, so it can only
    answer {e exact} re-submissions.  A {!fp} keeps the intermediate
    structure instead: the {e multiset} of per-operation radius-1
    neighborhood hashes ({!Cache_key.neighborhood_hashes}) together with
    the flow, allocation vector and config knobs.  Two fingerprints are
    {e comparable} when flow and allocation agree (a cached placement
    over a different component set cannot seed a warm start); their
    {!distance} is then

    - the symmetric difference of the neighborhood multisets — a
      single-op edit (duration tweak, kind change, added/removed op or
      edge) perturbs only the edited op and its direct neighbors, so it
      costs a handful of units, while unrelated graphs diverge almost
      everywhere — plus
    - a fixed toll of 2 per differing config knob (tc, we, beta, gamma,
      annealing schedule, restarts, seed, backend, fuel).

    Like the key, the fingerprint is invariant to op-id relabelling and
    to the textual formatting of the assay (the parser normalises
    whitespace and ordering away), and two requests with equal
    {!Cache_key}s always have distance 0.

    The index is a bounded, insertion-ordered table of
    (key, fingerprint, payload) entries scanned linearly — entries are
    small (no synthesis results), and determinism matters more than
    asymptotics at serving batch sizes.  Everything is a pure function
    of the sequence of [add]/[remove] calls: no clocks, no hashing
    nondeterminism, ties broken by recency with the query's own key
    winning its distance class. *)

type fp
(** A similarity fingerprint. *)

val fingerprint :
  ?flow:string ->
  config:Mfb_core.Config.t ->
  graph:Mfb_bioassay.Seq_graph.t ->
  allocation:Mfb_component.Allocation.t ->
  unit ->
  fp
(** Same inputs and defaults as {!Cache_key.make}. *)

type diff = {
  distance : int;       (** total edit distance *)
  changed_ops : int list;
      (** query operation ids whose radius-1 neighborhood the candidate
          lacks — the ops (and, transitively, their incident edges)
          invalidated by the edit, in ascending id order *)
  added : int;          (** query neighborhoods absent from the candidate *)
  removed : int;        (** candidate neighborhoods absent from the query *)
  knob_edits : int;     (** differing config knobs (each costs 2) *)
}

val distance : fp -> fp -> diff option
(** [distance query candidate]; [None] when incomparable (different
    flow or allocation).  [distance fp fp = Some {distance = 0; ...}]
    and the metric is symmetric in the [distance] field (though
    [changed_ops] names query-side ops). *)

type 'a t
(** A bounded similarity index carrying ['a] payloads (the server
    stores the resolved job, {e not} the result — results live in the
    LRUs and are re-derived deterministically when evicted). *)

val create : ?capacity:int -> threshold:int -> unit -> 'a t
(** Bounded at [capacity] (default 64) entries, oldest dropped first.
    [nearest] only answers within [threshold] distance.
    @raise Invalid_argument when [capacity < 1] or [threshold < 0]. *)

val add : 'a t -> Cache_key.t -> fp -> 'a -> unit
(** Insert (or refresh) an entry; the same key is kept at most once. *)

val remove : 'a t -> Cache_key.t -> unit

val mem : 'a t -> Cache_key.t -> bool

val length : 'a t -> int

val threshold : 'a t -> int

val nearest : 'a t -> Cache_key.t -> fp -> (Cache_key.t * 'a * diff) option
(** [nearest t key fp] is the closest comparable entry within the
    threshold, or [None].  Strictly closer wins; at equal distance the
    most recently added entry wins, except that an entry whose key
    equals [key] always wins its distance class — so when the exact key
    is present, [nearest] returns it with distance 0, agreeing with a
    {!Cache_key} exact hit. *)
