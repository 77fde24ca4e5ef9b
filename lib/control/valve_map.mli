(** Control-layer valve placement derived from a routed flow layer.

    The paper leaves control-logic optimization to future work (§VI,
    citing Wang et al.'s Hamming-distance-based valve-switching
    optimization); this module provides the substrate: where the valves
    sit.  A valve is needed wherever flows must be steered or isolated:

    - at every {e junction} of the channel network (a used cell with three
      or more used neighbours), and
    - at every component port that touches the channel network (isolation
      valves, one per active port). *)

type t

val of_routing : Mfb_route.Routed.result -> t
(** Derive the valve sites from the channel network of a routing result. *)

val count : t -> int
(** Number of valves. *)

val sites : t -> (int * int) list
(** Valve cells, sorted; each appears once. *)

val index : t -> int * int -> int option
(** Dense valve index of a cell, if a valve sits there. *)
