(** Fluid-volume accounting over a sequencing graph.

    Flow-based mixers combine equal volumes of their inputs (a 1:1 mixer
    splits its chamber between the incoming fluids); heaters, filters and
    detectors are volume-preserving single-input steps.  Propagating one
    chamber volume per sink upward through the graph yields the volume
    every edge must carry and the amount of raw input each source
    consumes — the reagent bill of the assay.

    Volumes are in chamber units (1.0 = one component chamber). *)

type t

val analyse : Seq_graph.t -> t
(** Demand-driven analysis: every sink must deliver one chamber unit;
    an operation's demand is the sum over its out-edges (a fan-out of
    [k] must produce [k] chambers, i.e. the operation runs conceptually
    [k] batches); each of the [n] inputs of an operation contributes
    [demand / n]. *)

val total_reagent : t -> float
(** Total fresh reagent consumed by the assay: summed over all
    operations, the chamber units dispensed into each beyond what its
    parents deliver (for a source, its whole production). *)
