(** Seeded deterministic defect models over channel cells and component
    sites.

    A {e defect plan} is the chip-fault analogue of the cluster tier's
    process-fault [Fault.plan]: a list of timed events, serialisable to
    the same style of JSON file, shared verbatim by the CLI, the tests
    and the cram tests.  Ticks are virtual — the serving tier's
    request clock — so progressive degradation scenarios replay
    identically everywhere.

    All generators draw from the canonical row-major channel-cell
    enumeration ({!cells}) with a [Random.State] seeded from the
    caller's seed only, so a (seed, chip) pair names one plan
    forever. *)

type target =
  | Cell of (int * int)  (** a defective channel cell *)
  | Component of int     (** a dead component site (by component id) *)

type event = { tick : int; target : target }

type plan = event list

val targets : plan -> target list
(** All targets in event order (ticks ignored). *)

val upto : plan -> tick:int -> target list
(** Targets of events with [tick <= tick] — the defect set visible at a
    virtual instant, for progressive scenarios. *)

val target_to_string : target -> string
(** ["cell(3,4)"] / ["component(2)"] — the rendering used by reports. *)

val target_to_json : target -> Mfb_util.Json.t

val target_of_json : Mfb_util.Json.t -> (target, string) result

val check : Mfb_place.Chip.t -> plan -> (unit, string) result
(** Every cell in bounds, every component id allocated. *)

(** {2 JSON plan files}

    [{"defects":[{"tick":0,"kind":"cell","x":3,"y":4},
                 {"tick":1,"kind":"component","id":2}]}]

    [tick] defaults to [0] when absent. *)

val to_json : plan -> Mfb_util.Json.t

val to_file : string -> plan -> unit
val of_file : string -> (plan, string) result

(** {2 Channel cells} *)

val cells : Mfb_place.Chip.t -> (int * int) list
(** All channel cells of the chip — cells not covered by any component
    footprint — in {e row-major} order: [(0,0), (1,0), …, (w-1,0),
    (0,1), …].  The generators below and [Plan.single_defect_yield]
    enumerate cells in this order, so a "cell index" means the same
    cell everywhere. *)

val normalize :
  Mfb_place.Chip.t -> target list -> (int * int) list * int list
(** [normalize chip targets] splits the targets into defective channel
    cells and dead components, both sorted and deduplicated, so what
    reads them does not depend on the input's order.  A cell under a
    component's footprint is that component's fault (the lowest such
    id, though footprints never overlap on a legal chip).  [Plan.repair]
    and [Audit.check] read targets through it. *)

(** {2 Seeded generators} *)

val single_cell : seed:int -> Mfb_place.Chip.t -> plan
(** One defective channel cell at tick 0. *)

val clustered : seed:int -> radius:int -> Mfb_place.Chip.t -> plan
(** Every channel cell within Manhattan [radius] of a seeded centre cell
    (debris field / delamination region), all at tick 0. *)

val progressive : seed:int -> count:int -> Mfb_place.Chip.t -> plan
(** [count] distinct channel cells failing one per tick ([0, 1, …]) — a
    chip degrading in the field.  Truncated to the number of channel
    cells. *)

val component_fault : seed:int -> Mfb_place.Chip.t -> plan
(** One dead component site at tick 0. *)
