(** Content-addressed request keys for the synthesis service.

    Synthesis ({!Mfb_core.Flow.run}) is a pure function of (sequencing
    graph, allocation, config, flow variant), so a
    request can be memoised under a key derived from that content alone.
    The key must be {e canonical}: two requests that denote the same
    synthesis problem must collide even when their textual sources
    differ.  Concretely, the key is invariant under

    - whitespace, comments and line order of the assay file (the parser
      already normalises those away), and
    - relabelling of operation ids: the graph contributes a structural
      fingerprint built from per-operation labels (kind, duration,
      output-fluid name/diffusion/wash override) refined by ancestor and
      descendant hashes, never from the dense ids themselves;

    while any change to an operation's duration or kind, a fluid's
    diffusion coefficient or wash override, the dependency structure,
    the allocation vector, the flow selection, or any {!Mfb_core.Config}
    field (annealing schedule included) produces a different key.

    Hashing is 64-bit FNV-1a over a canonical byte encoding — no
    external dependency, stable across hosts and OCaml versions. *)

type t
(** A 64-bit content hash. *)

val make :
  ?flow:string ->
  config:Mfb_core.Config.t ->
  graph:Mfb_bioassay.Seq_graph.t ->
  allocation:Mfb_component.Allocation.t ->
  unit ->
  t
(** [make ~config ~graph ~allocation ()] is the request key; [flow]
    (default ["ours"]) distinguishes the paper's flow from the baseline
    and ablations. *)

val graph_fingerprint : Mfb_bioassay.Seq_graph.t -> int64
(** The relabelling-invariant structural hash of the graph alone
    (exposed for tests: permuting operation ids must not change it). *)

val op_label : Mfb_bioassay.Operation.t -> int64
(** Intrinsic hash of one operation — kind, duration, output-fluid
    name/diffusion/wash override — independent of its id. *)

val neighborhood_hashes : Mfb_bioassay.Seq_graph.t -> int64 array
(** Per-operation radius-1 hashes, indexed by operation id: the op's
    own {!op_label} mixed with the sorted labels of its parents and of
    its children.  The {e multiset} of these hashes is invariant to id
    relabelling; a single-op edit perturbs only the edited op and its
    direct neighbors — the basis of {!Sim_index} distance. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** For [Hashtbl]-style use. *)

val to_hex : t -> string
(** 16 lowercase hex digits — the wire form quoted in protocol
    responses. *)

val to_int64 : t -> int64
(** The raw 64-bit hash — what a consistent-hash ring places on its
    circle to shard keys across fleet members. *)
