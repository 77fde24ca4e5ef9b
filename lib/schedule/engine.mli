(** Shared list-scheduling engine for the DCSA scheduler, the baseline and
    the conventional dedicated-storage architecture.

    Implements the priority-driven loop of the paper's Alg. 1 over a
    fluid-residency state machine:

    - every produced fluid stays inside its producing component until it
      is consumed in place, transported to its consumer, or evicted into
      a flow channel because the component is needed;
    - a component becomes ready [wash(residue)] seconds after its residue
      leaves (paper Eq. 2);
    - consuming a parent's output in place (Case I) eliminates both the
      transport and the wash of that component.

    The [case1] flag selects the binding rule: with [case1 = true] the
    engine prefers the component of a same-kind parent whose output is
    still resident, choosing the lowest diffusion coefficient (the paper's
    Case I); with [case1 = false] every operation is bound to the
    qualified component with the earliest availability (the paper's
    baseline BA).  In both modes an operation that happens to land on its
    parent's component with a single unconsumed copy is executed in place,
    matching the paper's discussion of [5]'s assumption.

    The storage mode decides only where an evicted fluid waits:

    - [`Channels] (DCSA, paper Fig. 1(b)): in a flow channel.  It leaves
      its component as late as possible, and a later copy of a fluid that
      has left also waits in a channel from that moment;
    - [`Unit] (the conventional architecture DCSA replaces, Fig. 1(a)): in
      a dedicated storage unit behind one entrance port and one exit port,
      each passing one fluid per [tc].  An evicted fluid leaves its
      component when the entrance port is next free and is in the unit
      [tc] later; a consumer's start waits until the exit port can deliver
      it.  The round trip is one transport whose [removal] is the
      eviction, and it is the only kind of transport with
      [removal < depart].  The number of cells in the unit is not
      modelled. *)

val run :
  ?priorities:float array ->
  ?storage:[ `Channels | `Unit ] ->
  case1:bool ->
  tc:float ->
  Mfb_bioassay.Seq_graph.t ->
  Mfb_component.Allocation.t ->
  Types.t
(** [run ~case1 ~tc g alloc] schedules every operation of [g] on the
    components of [alloc].  [priorities] overrides the longest-path
    priority values (one per operation) — the hook used by the
    multi-start scheduler; it affects only the dispatch order, never
    legality.  [storage] defaults to [`Channels].

    @raise Invalid_argument if [tc <= 0], some operation kind of [g] has
    no allocated component, or [priorities] has the wrong length. *)

(** Step-wise access to the scheduling state machine, for exhaustive
    search over binding decisions ({!Exact}).  Every transition uses
    exactly the timing semantics of {!run}, so exact and heuristic
    results are directly comparable. *)
module Search : sig
  type snapshot

  val init :
    tc:float ->
    Mfb_bioassay.Seq_graph.t ->
    Mfb_component.Allocation.t ->
    snapshot
  (** Fresh state; same validation as {!run}. *)

  val ready_ops : snapshot -> int list
  (** Unscheduled operations whose parents are all scheduled. *)

  val candidates : snapshot -> int -> (int * int option) list
  (** [(component, in_place_parent)] choices for one ready operation; the
      in-place parent is induced by the component's resident fluid. *)

  val apply : snapshot -> int -> int * int option -> snapshot
  (** Schedule the operation on the chosen component; the input snapshot
      is unchanged. *)

  val complete : snapshot -> bool

  val current_makespan : snapshot -> float
  (** Maximum finish time among scheduled operations. *)

  val tails : Mfb_bioassay.Seq_graph.t -> float array
  (** Duration-only critical tail of every operation (transport-free,
      hence admissible).  Depends only on the graph — compute once per
      search and feed it to {!lower_bound}. *)

  val lower_bound : ?tails:float array -> snapshot -> float
  (** Admissible completion-time bound: current makespan joined with, for
      every unscheduled operation, its earliest conceivable start plus
      its duration-only critical tail.  [tails] (from {!tails}) skips
      recomputing the static tail table on every call. *)

  val signature : snapshot -> string
  (** Canonical encoding of the future-relevant state: per-operation
      progress, live-fluid production times and removal flags, and every
      component's (ready, resident) pair.  Equal signatures guarantee
      bit-identical futures, so a search may discard the snapshot whose
      accumulated makespan is no better — the dominance rule of
      {!Exact.schedule}. *)

  val to_schedule : snapshot -> Types.t
  (** @raise Invalid_argument when not {!complete}. *)
end
