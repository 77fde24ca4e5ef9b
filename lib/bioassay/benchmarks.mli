(** Real-life bioassay benchmarks.

    The paper evaluates on three real-life applications (PCR, IVD, CPA)
    taken from the DCSA synthesis literature.  The original input files are
    not public, so the graphs here follow the standard structures used
    across the FBMB literature with the operation counts of the paper's
    Table I (PCR: 7, IVD: 12, CPA: 55); see DESIGN.md §2. *)

val pcr : unit -> Seq_graph.t
(** Polymerase chain reaction — a 7-operation binary mixing tree
    (4 leaf mixes, 2 intermediate mixes, 1 root mix). *)

val ivd : unit -> Seq_graph.t
(** In-vitro diagnostics — 3 samples x 2 assays: 6 mix operations each
    followed by a detection, 12 operations. *)

val cpa : unit -> Seq_graph.t
(** Colorimetric protein assay — a 4-level binary dilution tree
    (15 mixes) whose 8 leaves each feed a 4-mix reagent chain and a final
    detection: 47 mixes + 8 detections = 55 operations. *)

val fig2_example : unit -> Seq_graph.t
(** The 10-operation illustrative bioassay of the paper's Fig. 2(a),
    reconstructed from the bindings and transports discussed in §II-C
    (o1 -> o5 -> o7 -> o10 is the critical path; o3, o4 -> o6). *)
