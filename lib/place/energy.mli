(** Placement energy (paper Eq. 3):
    [Energy(P) = sum over nets of mdis(i, j) * cp(i, j)]. *)

type weighted_net = { a : int; b : int; cp : float }

val weigh : beta:float -> gamma:float -> Net.t list -> weighted_net list
(** Precompute connection priorities so that energy evaluation inside the
    annealing loop is a plain weighted-wirelength sum. *)

val uniform : Net.t list -> weighted_net list
(** All connection priorities forced to 1.0 — the ablation that turns
    Eq. 3 into plain half-perimeter-style wirelength. *)

val total : Chip.t -> weighted_net list -> float
(** [total chip nets] is Eq. 3 under the current placement. *)

val wirelength : Chip.t -> weighted_net list -> float
(** Unweighted [sum mdis(i, j)] over the same nets. *)

val compaction : Chip.t -> float
(** [sum mdis(i, j)] over {e all} component pairs — a measure of how
    spread out the placement is.  Added with a small weight to the
    annealing objective so that components without strong nets still pack
    tightly (the paper argues DCSA "effectively reduces chip area"). *)

(** {2 Incremental evaluation}

    The annealing hot path only needs the energy {e difference} caused by
    a move, which touches one or two components.  The index below maps
    each component to its incident weighted nets so the walk
    ({!Walk}) can re-evaluate just those terms (before and after the
    move) instead of folding over every net. *)

type index = private {
  na : int array;     (** first endpoint of each net, in list order *)
  nb : int array;     (** second endpoint *)
  ncp : float array;  (** connection priority *)
  incident : int array array;
  (** per component, the ids of its incident nets, ascending; a
      self-net once *)
  stamp : int array;  (** per net, the round that last counted it *)
  mutable round : int;
  mutable terms : int;  (** net terms {!incident_total} has evaluated *)
}
(** Component → incident-nets adjacency, with a per-net stamp used to
    deduplicate nets shared by the two queried components.  Mutable
    (the stamp round and the term count) — not safe to share across
    domains; build one per annealing walk. *)

val index : n_components:int -> weighted_net list -> index
(** [index ~n_components nets] builds the adjacency once per walk.
    Component ids in [nets] must lie in [0, n_components). *)

val incident_total : index -> float array -> float array -> int -> int -> float
(** [incident_total idx cx cy i j] is the Eq. 3 partial sum over the
    distinct nets incident to component [i] or [j] (pass [j = i] for one
    component), reading component centres from [cx] and [cy].  It adds
    the number of net terms it evaluated to [idx.terms] and allocates
    nothing but its result.  Evaluating it before and after a move that
    displaced only [i] and [j] yields the exact Eq. 3 delta:
    non-incident terms cancel. *)
