(** Discrete-event replay of a synthesised physical design, for
    rendering it in motion.

    The replay reconstructs the state of the chip — what every component
    is doing, which fluid sits in which channel cell — at any time point,
    and renders it as ASCII frames.  Checking a design's legality is
    [Mfb_repair.Audit]'s job. *)

type activity =
  | Idle
  | Executing of int   (** operation id *)
  | Holding of int     (** resident output fluid of this operation *)
  | Washing of int     (** flushing the residue of this operation *)

type snapshot = {
  time : float;
  components : activity array;          (** indexed by component id *)
  cells : ((int * int) * Mfb_bioassay.Fluid.t) list;
      (** channel cells currently holding fluid *)
}

type t

val create :
  tc:float ->
  chip:Mfb_place.Chip.t ->
  schedule:Mfb_schedule.Types.t ->
  routing:Mfb_route.Routed.result ->
  t

val events : t -> float list
(** All distinct event times (operation starts/finishes, transport
    boundaries, wash boundaries), sorted ascending. *)

val state_at : t -> float -> snapshot

val frame : t -> float -> string
(** ASCII rendering of {!state_at}: components drawn with their kind
    letter (uppercase = executing, lowercase = holding a fluid,
    [~] = washing, [_] = idle), [*] for channel cells holding fluid,
    [.] free. *)
