(** Fluids and the wash-time model.

    Washing a contaminated channel or component is dominated by the
    diffusion coefficient of the contaminant (paper §II-B, citing Hu et
    al.): small molecules (high diffusion coefficient, around 1e-5 cm²/s)
    wash in about 0.2 s, while cells and viruses (around 5e-8 cm²/s) take
    about 6 s.  We fit a log-linear model through those two anchor points
    and clamp it to a physically sensible range. *)

type t = {
  name : string;
  diffusion : float;  (** diffusion coefficient in cm²/s; positive *)
  wash_override : float option;
      (** explicit wash time, overriding the model — the paper's
          Fig. 2(b) tabulates measured wash times per fluid *)
}

val make : name:string -> diffusion:float -> t
(** @raise Invalid_argument if [diffusion <= 0] or not finite. *)

val with_wash_time : t -> float -> t
(** [with_wash_time f w] pins the wash time of [f] to the measured value
    [w], as in the paper's Fig. 2(b) table.
    @raise Invalid_argument if [w <= 0] or not finite. *)

val wash_time_of_diffusion : float -> float
(** [wash_time_of_diffusion d] is the buffer-flush time in seconds needed
    to remove a residue with diffusion coefficient [d] (cm²/s):
    [clamp (2.521 * (-log10 d) - 12.403) 0.2 12.0].
    Anchors: 1e-5 -> 0.2 s, 5e-8 -> 6.0 s. *)

val wash_time : t -> float
(** [wash_time f] is the explicit override when present, else
    [wash_time_of_diffusion f.diffusion]. *)

val palette : t array
(** Representative fluids spanning the diffusion range of the paper's
    examples (lysis buffer down to cell-scale contaminants), used to
    assign output fluids to benchmark operations deterministically. *)

val of_palette : int -> t
(** [of_palette i] is [palette.(i mod Array.length palette)]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
