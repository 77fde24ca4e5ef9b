(** Chip model: a rectangular grid of routing cells with placed
    components.

    A placement assigns each component an anchor cell (top-left corner of
    its footprint) and an orientation.  Components must stay inside the
    chip with a one-cell border margin and keep at least [spacing] empty
    cells between footprints so that flow channels can be routed. *)

type placement = { x : int; y : int; rotated : bool }

type t = {
  width : int;   (** grid width in cells *)
  height : int;  (** grid height in cells *)
  components : Mfb_component.Component.t array;
  places : placement array;  (** indexed like [components] *)
}

val spacing : int
(** Minimum number of empty cells between two component footprints (1). *)

val size_for : Mfb_component.Component.t array -> int * int
(** A square chip large enough to place the components with routing
    space (about 2.25x the total padded component area). *)

val footprint : t -> int -> int * int * int * int
(** [footprint chip i] is [(x, y, w, h)] of component [i] under its
    current placement (width/height swapped when rotated). *)

val center : t -> int -> float * float
(** Center coordinates of a component's footprint. *)

val in_bounds : t -> int -> bool
(** Component [i] lies inside the chip with a one-cell border margin. *)

val pair_legal : t -> int -> int -> bool
(** Components [i] and [j] respect the spacing requirement. *)

val legal : t -> bool
(** All components are in bounds and pairwise spaced. *)

val manhattan : t -> int -> int -> float
(** Manhattan distance between two component centers (the paper's
    [mdis]). *)

val blocked_cells : t -> (int * int) list
(** Cells covered by component footprints (unavailable for routing). *)

val random : Mfb_util.Rng.t -> Mfb_component.Component.t array -> t
(** A random legal placement on a [size_for] chip (rejection sampling
    with a deterministic fallback to scanline placement). *)

val scanline : Mfb_component.Component.t array -> t
(** Deterministic greedy row-by-row placement in component-id order. *)

val copy : t -> t
