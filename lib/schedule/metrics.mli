(** Schedule-level metrics reported in the paper's evaluation. *)

val completion_time : Types.t -> float
(** Completion time of the bioassay (Table I "Execution time"). *)

val resource_utilization : Types.t -> float
(** Paper Eq. 1: the mean over all allocated components of
    [actual execution time / (last finish - first start)]; a component
    that executes nothing contributes 0.  Result in [\[0, 1\]]. *)

val total_channel_cache_time : Types.t -> float
(** Sum over transports of the time the fluid waited inside a channel
    before departing to its consumer (Fig. 8). *)

val total_component_wash_time : Types.t -> float
(** Sum of all component wash durations incurred by the schedule. *)

val busy_time : Types.t -> int -> float
(** Total execution time bound to a given component. *)

val concurrency : Types.t -> Types.transport -> int
(** Number of other transports whose channel occupation overlaps the
    given one — the [nt_k] term of the paper's Eq. 4. *)
