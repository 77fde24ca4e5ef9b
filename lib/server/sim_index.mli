(** Similarity fingerprints over cached synthesis requests — the lookup
    side of the warm-start cache.

    {!Cache_key} folds the whole request into one word, so it can only
    answer {e exact} re-submissions.  A {!fp} keeps the intermediate
    structure instead: the {e multiset} of per-operation radius-1
    neighborhood hashes ({!Cache_key.neighborhood_hashes}) together with
    the flow, allocation vector and config knobs.  Two fingerprints are
    {e comparable} when flow and allocation agree (a cached placement
    over a different component set cannot seed a warm start); their
    distance ({!diff}) is then

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

    {!nearest} scans a newest-first candidate list linearly — candidates
    are small (no synthesis results), and determinism matters more than
    asymptotics at serving batch sizes.  The answer is a pure function
    of the list: no clocks, no hashing nondeterminism, ties broken by
    recency with the query's own key winning its distance class. *)

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

val nearest :
  threshold:int ->
  (Cache_key.t * (fp * 'a)) list ->
  Cache_key.t ->
  fp ->
  (Cache_key.t * 'a * diff) option
(** [nearest ~threshold candidates key fp] is the closest comparable
    candidate within [threshold] distance, or [None].  [candidates] are
    (key, (fingerprint, payload)) bindings, newest first — the server
    keeps them in an {!Mfb_util.Lru} and passes {!Mfb_util.Lru.bindings}
    (the payload is the resolved job, {e not} the result).  Strictly
    closer wins; at equal distance the newer candidate wins, except that
    a candidate whose key equals [key] always wins its distance class —
    so when the exact key is present, [nearest] returns it with distance
    0, agreeing with a {!Cache_key} exact hit. *)
