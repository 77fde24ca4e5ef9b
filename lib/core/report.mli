(** Formatting of experiment outputs in the shape of the paper's Table I
    and Figs. 8-9. *)

val table1 : (Result.t * Result.t) list -> string
(** [table1 pairs] renders Table I from (ours, baseline) result pairs:
    execution time, resource utilization, total channel length, CPU time,
    with per-row and average improvement percentages. *)

val figure :
  title:string ->
  unit_label:string ->
  value:(Result.t -> float) ->
  (Result.t * Result.t) list ->
  string
(** [figure ~title ~unit_label ~value pairs] renders a two-series text
    bar chart (ours vs BA) of [value] per benchmark — used for Fig. 8
    (total channel cache time) and Fig. 9 (total channel wash time). *)

val fig8 : (Result.t * Result.t) list -> string
val fig9 : (Result.t * Result.t) list -> string

val timing_table : Result.t list -> string
(** Per-stage wall-clock vs CPU time of each result (plus a total row).
    On a multi-core host with [--jobs N] the CPU/Wall ratio of a
    parallel stage shows its effective speedup.  An empty input renders
    a header-only table. *)

val metrics_table : Result.t list -> string
(** Telemetry aggregates of each result (one row per metric, in the
    deterministic (category, name) order).  Results carry metrics only
    when a {!Mfb_util.Telemetry} sink was installed during synthesis. *)

val suite_to_json : (Result.t * Result.t) list -> Mfb_util.Json.t
