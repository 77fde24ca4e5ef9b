(** The paper's comparison baseline (BA): earliest-ready binding, then a
    construction-by-correction placement-and-routing solution whose
    postponements are retimed into the final schedule. *)

val run :
  ?config:Config.t ->
  ?route_io:bool ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Result.t
(** [run g alloc] is [Flow.run ~variant:`Ba g alloc]. *)
