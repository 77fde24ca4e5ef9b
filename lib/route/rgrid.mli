(** Routing grid: the chip partitioned into rectangular cells
    (paper §IV-B2).

    Every cell carries a weight [w] (initially the constant [w_e]; after a
    task is routed through, the wash time of the residue it leaves) and a
    set of timed occupations.  Component footprints are blocked; every
    component exposes one port cell on its perimeter where channels
    attach. *)

type occupation = {
  interval : Mfb_util.Interval.t;  (** when the fluid is inside the cell *)
  fluid : Mfb_bioassay.Fluid.t;    (** what residue it leaves behind *)
}

type t

val create : we:float -> Mfb_place.Chip.t -> t
(** Grid matching the chip's dimensions with all component cells blocked.
    @raise Invalid_argument if [we < 0]. *)

val width : t -> int
val height : t -> int

val in_bounds : t -> int * int -> bool

val blocked : t -> int * int -> bool

val blocked_at : t -> int -> bool
(** [blocked_at grid i] is whether cell [i = y * width + x] is blocked. *)

val weight : t -> int * int -> float

val weight_at : t -> int -> float
(** [weight_at grid i] is the weight of cell [i = y * width + x]. *)

val set_weight : t -> int * int -> float -> unit

val occupations : t -> int * int -> occupation list
(** Sorted by interval start. *)

val add_occupation : t -> int * int -> occupation -> unit

val ports : t -> int -> (int * int) list
(** [ports grid c] are the port cells of component [c]: the middle
    unblocked in-bounds cell of each footprint side (up to four, at least
    one).  Flow channels attach to any of them.
    @raise Invalid_argument if the component id is unknown. *)

val port : t -> int -> int * int
(** First port of {!ports} — a canonical attachment point. *)

val conflict_free :
  t -> int * int -> Mfb_util.Interval.t -> Mfb_bioassay.Fluid.t -> bool
(** [conflict_free grid cell iv fluid] is true when occupying [cell] over
    [iv] with [fluid] neither overlaps an existing occupation nor starts
    before a prior different-fluid residue could be washed away
    (the time-slot test of the paper's Eq. 5, extended with the wash
    separation of conflict class 3 in §II-C2). *)

val conflict_free_at :
  t -> int -> Mfb_util.Interval.t -> Mfb_bioassay.Fluid.t -> bool
(** [conflict_free_at grid i iv fluid] is {!conflict_free} on cell
    [i = y * width + x], the form path search asks in.  A cell with no
    occupation is answered from its record alone, with no window test,
    and no verdict allocates. *)

val required_delay :
  t -> int * int -> Mfb_util.Interval.t -> Mfb_bioassay.Fluid.t -> float
(** Smallest shift [d >= 0] such that [Interval.shift iv d] passes
    [conflict_free] on this cell with respect to the occupations
    committed so far. *)

val wash_debt :
  t -> int * int -> at:float -> Mfb_bioassay.Fluid.t -> float
(** Wash time needed on this cell before a fluid can pass at time [at]:
    the wash time of the latest prior occupation's residue when it
    differs from the incoming fluid, else [0.]. *)

val conflict_free_ref :
  t -> int * int -> Mfb_util.Interval.t -> Mfb_bioassay.Fluid.t -> bool
(** Reference implementation of {!conflict_free}: a linear fold over the
    cell's occupation list.  The production query answers the settled
    prefix (occupations ended before the query starts) in O(log n) from
    a sorted-array index and only scans the active tail; this fold is
    retained as the differential-testing oracle — the two must agree
    bit-for-bit on every input. *)

val required_delay_ref :
  t -> int * int -> Mfb_util.Interval.t -> Mfb_bioassay.Fluid.t -> float
(** Reference implementation of {!required_delay} (linear fold per
    settle iteration); differential-testing oracle. *)

val wash_debt_ref :
  t -> int * int -> at:float -> Mfb_bioassay.Fluid.t -> float
(** Reference implementation of {!wash_debt} (linear fold);
    differential-testing oracle. *)

val neighbours : t -> int * int -> (int * int) list
(** In-bounds 4-neighbourhood. *)

val used_cells : t -> (int * int) list
(** Cells with at least one occupation — the channel network. *)
