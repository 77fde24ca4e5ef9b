(** Transformation operations for the annealing placer (paper Alg. 2):
    translation, rotation, and pairwise swap of components.  A move
    mutates the placement in place and returns an undo closure, or [None]
    when the perturbed placement would be illegal (the move is rolled
    back before returning). *)

type undo = unit -> unit

val random_move : Mfb_util.Rng.t -> Chip.t -> undo option
(** One of three moves, weighted 3:1:2: translate (move one random
    component to a random in-bounds anchor), rotate (toggle the
    orientation of one random component) or swap (exchange the anchors
    of two random components). *)

val random_move_touched :
  Mfb_util.Rng.t -> Chip.t -> (int list * undo) option
(** Like {!random_move}, but also returns the indices of the components
    the move displaced (one for translate/rotate, two for swap) so the
    caller can re-evaluate only their incident energy terms.  Consumes
    the RNG identically to {!random_move}. *)
