(** Small statistics helpers used by metrics and the benchmark harness. *)

val sum : float list -> float

val mean : float list -> float
(** Mean of a non-empty list; [0.] on the empty list. *)

val percent_improvement : ours:float -> baseline:float -> float
(** [(baseline - ours) / baseline * 100]; [0.] when [baseline = 0]. *)

val percent_increase : ours:float -> baseline:float -> float
(** [(ours - baseline) / baseline * 100]; [0.] when [baseline = 0]. *)
