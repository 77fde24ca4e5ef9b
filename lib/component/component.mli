(** On-chip components: mixers, heaters, filters, detectors.

    Component kinds mirror operation kinds one-to-one (an operation of
    kind [k] is {e qualified} to run only on a component of kind [k]).
    Footprints are in routing-grid cells. *)

type t = {
  id : int;                 (** dense index within an allocation *)
  kind : Mfb_bioassay.Operation.kind;
  width : int;              (** footprint width in grid cells *)
  height : int;             (** footprint height in grid cells *)
}

val make : id:int -> kind:Mfb_bioassay.Operation.kind -> t
(** A component with the default footprint for its kind
    (Mixer 3x3, Heater 2x2, Filter 2x2, Detector 2x2). *)

val qualified : t -> Mfb_bioassay.Operation.t -> bool
(** [qualified c op] is true when [c] can execute [op]. *)

val label : t -> string
(** Human-readable name such as ["Mixer1"] (1-based per kind is not
    tracked; the label is ["<Kind><id>"] with the global id). *)
