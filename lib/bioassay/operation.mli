(** Bioassay operations: the vertices of a sequencing graph.

    Each operation has a kind (which decides the component type that can
    execute it), a fixed execution time, and an output fluid whose
    diffusion coefficient drives wash times downstream. *)

type kind = Mix | Heat | Filter | Detect

type t = {
  id : int;          (** dense index within its sequencing graph *)
  kind : kind;
  duration : float;  (** execution time in seconds; positive *)
  output : Fluid.t;  (** the fluid this operation produces *)
}

val make : id:int -> kind:kind -> duration:float -> output:Fluid.t -> t
(** @raise Invalid_argument if [duration <= 0] or [id < 0]. *)

val kind_to_string : kind -> string

val kind_index : kind -> int
(** Mix -> 0, Heat -> 1, Filter -> 2, Detect -> 3 — the order of the
    allocation vectors [(mixers, heaters, filters, detectors)] in the
    paper's Table I. *)

val kind_of_index : int -> kind
(** Inverse of [kind_index]. @raise Invalid_argument when out of range. *)

val equal_kind : kind -> kind -> bool

val wash_time : t -> float
(** Wash time of this operation's output residue. *)

val pp : Format.formatter -> t -> unit
