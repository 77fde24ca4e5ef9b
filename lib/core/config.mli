(** Synthesis-flow parameters.  Defaults are the paper's §V settings:
    alpha = 0.9, beta = 0.6, gamma = 0.4, T0 = 10000, I_max = 150,
    T_min = 1.0, t_c = 2.0, w_e = 10. *)

type t = {
  tc : float;     (** transport-time constant between components (s) *)
  we : float;     (** initial routing-cell weight *)
  beta : float;   (** concurrency weight in Eq. 4 *)
  gamma : float;  (** wash-time weight in Eq. 4 *)
  sa : Mfb_place.Annealer.params;  (** annealing schedule *)
  sa_restarts : int;
      (** independent annealing restarts per placement (default 1); the
          best energy wins deterministically regardless of how many
          domains execute them *)
  seed : int;     (** RNG seed for the annealer *)
  backend : Mfb_schedule.Portfolio.backend;
      (** scheduling backend: the DCSA heuristic (default), the exact
          branch-and-bound oracle, or the portfolio racing both *)
  exact_fuel : int;
      (** virtual-tick budget (expanded nodes) of the exact backend *)
}

val default : t

val max_tc : float
(** The largest accepted [tc], 10{^6} s.  No on-chip transport comes
    near it, and below it [tc] alone cannot push a schedule time past
    the largest float; a [tc] of 1e308 would, and the flow would fail on
    a non-finite interval.  {!validate} and the CLI's [--tc] refuse
    anything larger. *)

val validate : t -> unit
(** @raise Invalid_argument when a parameter is out of range, [tc]
    above {!max_tc} included. *)

val to_json : t -> Mfb_util.Json.t
(** Stable field-by-field rendering (annealing schedule nested under
    ["sa"]) — echoed by the serve protocol's [stats] reply so clients
    can see the exact parameter set behind cached results. *)
