(** The seven benchmark instances of the paper's Table I. *)

type instance = {
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;  (** Table I column 3 *)
}

val pcr : unit -> instance
(** 7 ops, (3,0,0,0). *)

val ivd : unit -> instance
(** 12 ops, (3,0,0,2). *)

val cpa : unit -> instance
(** 55 ops, (8,0,0,2). *)

val synthetic1 : unit -> instance
(** 20 ops, (3,3,2,1). *)

val synthetic2 : unit -> instance
(** 30 ops, (5,2,2,2). *)

val synthetic3 : unit -> instance
(** 40 ops, (6,4,4,2). *)

val synthetic4 : unit -> instance
(** 50 ops, (7,4,4,3). *)

val all : unit -> instance list
(** In Table-I row order. *)

val run_pairs :
  ?jobs:int ->
  ?config:Config.t ->
  ?instances:instance list ->
  unit ->
  (Result.t * Result.t) list
(** [run_pairs ~jobs ()] synthesises every instance (default: the whole
    suite) with both the paper's flow and the baseline, running the
    independent (instance, flow) tasks on up to [jobs] domains
    (default 1).  The returned (ours, baseline) pairs are in instance
    order and bit-for-bit independent of [jobs]. *)

val find : string -> instance option
(** Case-insensitive lookup by benchmark name.  Names are compared
    before anything is built, so only the named instance is generated;
    [find "nope"] builds nothing. *)

val names : string list
(** The graph names of {!all}, in the same order. *)
