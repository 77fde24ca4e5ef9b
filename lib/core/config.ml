type t = {
  tc : float;
  we : float;
  beta : float;
  gamma : float;
  sa : Mfb_place.Annealer.params;
  sa_restarts : int;
  seed : int;
  backend : Mfb_schedule.Portfolio.backend;
  exact_fuel : int;
}

let default =
  { tc = 2.0; we = 10.0; beta = 0.6; gamma = 0.4;
    sa = Mfb_place.Annealer.default_params; sa_restarts = 1; seed = 42;
    backend = Mfb_schedule.Portfolio.Heuristic;
    exact_fuel = Mfb_schedule.Exact.default_fuel }

let to_json cfg =
  let module J = Mfb_util.Json in
  J.Obj
    [
      ("tc", J.Float cfg.tc);
      ("we", J.Float cfg.we);
      ("beta", J.Float cfg.beta);
      ("gamma", J.Float cfg.gamma);
      ( "sa",
        J.Obj
          [
            ("t0", J.Float cfg.sa.t0);
            ("t_min", J.Float cfg.sa.t_min);
            ("alpha", J.Float cfg.sa.alpha);
            ("i_max", J.Int cfg.sa.i_max);
          ] );
      ("sa_restarts", J.Int cfg.sa_restarts);
      ("seed", J.Int cfg.seed);
      ( "backend",
        J.String (Mfb_schedule.Portfolio.backend_to_string cfg.backend) );
      ("exact_fuel", J.Int cfg.exact_fuel);
    ]

let max_tc = 1e6

let validate cfg =
  if cfg.tc <= 0. then invalid_arg "Config: tc must be positive";
  if not (Float.is_finite cfg.tc) then invalid_arg "Config: tc must be finite";
  if cfg.tc > max_tc then
    invalid_arg (Printf.sprintf "Config: tc must be at most %g" max_tc);
  if cfg.we < 0. then invalid_arg "Config: we must be non-negative";
  if cfg.beta < 0. || cfg.gamma < 0. then
    invalid_arg "Config: beta and gamma must be non-negative";
  if cfg.sa_restarts < 1 then invalid_arg "Config: sa_restarts must be >= 1";
  if cfg.exact_fuel < 1 then invalid_arg "Config: exact_fuel must be >= 1"
