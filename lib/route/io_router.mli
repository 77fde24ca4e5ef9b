(** Inlet dispensing and waste routing.

    Source operations consume fluids dispensed from reservoirs at the chip
    border, and final products drain to border outlets.  This pass adds
    those runs to an already-routed design so channel-length and wash
    accounting include them (the paper's totals do: its PCR design has
    420 mm of channel for six internal edges).

    Input fluids of a source operation are modelled as one buffer per
    operation (named ["input-oN"], diffusion drawn from the palette);
    the waste run carries the sink's output fluid. *)

val finalize :
  weight_update:bool ->
  route_io:bool ->
  Rgrid.t ->
  tc:float ->
  Mfb_schedule.Types.t ->
  Routed.task list ->
  unresolved:int ->
  Routed.result
(** [finalize ~route_io grid ~tc sched tasks ~unresolved] closes a
    transport router's run: [tasks] are its committed transports in
    reverse commit order and [unresolved] its conflicting commits.
    With [route_io] it first routes every template on [grid] —
    conflict-aware with staging slack where possible; a dispense that is
    boxed in during its window arrives late instead, carrying a positive
    [delay] for the caller to retime; only when even that fails is the
    run committed best-effort (counted in [unresolved]) — then
    {!Routed.finalize}s the lot, I/O runs last in commit order.
    [weight_update] is the transport router's. *)
