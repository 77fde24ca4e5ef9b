(** Plain-text serialization of sequencing graphs.

    The format is line-based; [#] starts a comment, blank lines are
    ignored:

    {v
    assay "protein-panel"
    fluid serum 4e-7          # name, diffusion coefficient (cm^2/s)
    fluid virus 1e-8 6.0      # optional third field: measured wash time (s)
    fluid reagent 1e-6
    op 0 mix 5.0 serum        # id, kind, duration (s), output fluid
    op 1 heat 4.0 reagent
    op 2 detect 3.0 serum
    edge 0 1                  # producer, consumer
    edge 1 2
    v}

    Kinds: [mix], [heat], [filter], [detect] (case-insensitive).
    Operation ids must be dense ([0 .. n-1]) but may appear in any
    order. *)

type error = { line : int; message : string }

val parse : string -> (Seq_graph.t, error) result
(** [parse text] reads a sequencing graph from the format above.  All
    structural constraints of {!Seq_graph.create} are enforced and
    reported with the offending line where possible. *)

val of_file : string -> (Seq_graph.t, error) result
(** [of_file path] parses the file's contents; I/O failures are reported
    as [line = 0]. *)

val to_string : Seq_graph.t -> string
(** Serialize a graph; [parse (to_string g)] reconstructs a graph equal in
    name, operations, and edge set. *)

val pp_error : Format.formatter -> error -> unit
