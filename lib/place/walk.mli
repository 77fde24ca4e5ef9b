(** The annealing walk's placement state and its moves (paper Alg. 2):
    translation, rotation and pairwise swap of components.

    The placement lives in flat per-component arrays — anchor,
    orientation, footprint width and height, centre — so that a move,
    its legality check, its undo and its energy delta allocate nothing.
    Every centre, distance and sum is computed with the arithmetic and
    in the order of the {!Chip}-based evaluation ({!Chip.center},
    {!Chip.manhattan}, {!Energy.total}, {!Energy.compaction}), so the
    walk's values equal theirs bit for bit. *)

type t
(** Mutable; one per annealing walk. *)

val create : compaction_weight:float -> Energy.index -> Chip.t -> t
(** [create ~compaction_weight idx chip] starts a walk at [chip]'s
    placement.  The objective it tracks is Eq. 3 over [idx]'s nets plus
    [compaction_weight] times {!Energy.compaction}. *)

val propose : Mfb_util.Rng.t -> t -> bool
(** One random move, weighted 3:1:2: translate (one random component to
    a random anchor), rotate (toggle one random component's orientation)
    or swap (exchange the anchors of two random components, each keeping
    its orientation).  A move that keeps every component in bounds and
    spaced is applied and answers [true]; otherwise the placement is
    left as it was and the answer is [false]. *)

val undo : t -> unit
(** Restore the placement from before the last applied move. *)

val delta : t -> float
(** The objective after the last applied move minus the objective
    before it, from only the nets incident to the moved components and
    the compaction pairs containing one of them.  The placement is the
    same after the call as before. *)

val objective : t -> float
(** The objective of the current placement, recomputed from scratch. *)

val places : t -> Chip.placement array
(** A fresh copy of the current placement. *)

val terms : t -> int
(** Net and compaction terms evaluated by {!delta} so far. *)
