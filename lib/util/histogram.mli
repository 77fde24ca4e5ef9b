(** Log-bucketed latency histogram: bounded memory, deterministic
    quantiles.

    The serving tier's rolling-metric primitive.  Observations land in
    geometric buckets with boundaries [gamma^k] where
    [gamma = 2^(1/4)] (four buckets per octave, so any quantile
    estimate is within one bucket — a factor of [gamma] ≈ 1.19 — of
    the exact sample).  The bucket index range is clamped, so memory
    is a fixed ~300-slot array per histogram regardless of how many
    observations arrive.

    Non-positive observations land in a dedicated zero bucket whose
    representative value is [0].  [count], [sum], [min] and [max] are
    tracked exactly (not from buckets). *)

type t

val gamma : float
(** Bucket growth factor, [2^(1/4)]. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation.  NaN is ignored. *)

val count : t -> int
val sum : t -> float

val max_value : t -> float
(** Exact largest observation; [0.] when empty. *)

val snapshot_json : t -> Json.t
(** Compact deterministic snapshot:
    [{count; sum; min; max; p50; p95; p99}], [min] and [max] exact
    ([0.] when empty).  A quantile [pq] is the upper bound of the
    bucket holding the rank-[ceil (q * count)] observation (rank at
    least 1), i.e. an estimate [u] with [x <= u <= x * gamma^2] for
    the exact quantile [x > 0]; [0.] when the histogram is empty or
    the rank falls in the zero bucket. *)

val prometheus :
  ?help:string ->
  ?labels:(string * string) list ->
  ?header:bool ->
  name:string ->
  Buffer.t ->
  t ->
  unit
(** Append a Prometheus text-exposition histogram ([# TYPE .. histogram],
    cumulative [_bucket{le="..."}] lines over the occupied buckets plus
    [+Inf], then [_sum] and [_count]) to the buffer.  [labels] are
    rendered on every series line (merged with [le] on buckets) with
    their values escaped per the exposition format, so one metric name
    can carry per-slot series ([slot="3"]) that scrapers aggregate;
    [help] is escaped likewise.  [header] (default true) controls the
    [# HELP]/[# TYPE] preamble — pass [false] when appending further
    label permutations of a metric name already introduced, since the
    exposition format allows the preamble only once per name.  Every
    emitted line is newline-terminated. *)

val escape_label : string -> string
(** Escape a label value for the Prometheus text exposition format:
    backslash, double-quote and newline become backslash-escaped
    two-character sequences. *)

val escape_help : string -> string
(** Escape a [# HELP] text: backslash and newline become
    backslash-escaped two-character sequences. *)
