module Telemetry = Mfb_util.Telemetry

type params = { t0 : float; t_min : float; alpha : float; i_max : int }

let default_params = { t0 = 10000.; t_min = 1.0; alpha = 0.9; i_max = 150 }

type result = {
  chip : Chip.t;
  energy : float;
  initial_energy : float;
  accepted : int;
  attempted : int;
  temperature_steps : int;
}

let validate p =
  if p.t0 <= 0. || p.t_min <= 0. || p.t0 < p.t_min then
    invalid_arg "Annealer.place: temperatures must satisfy 0 < t_min <= t0";
  if p.alpha <= 0. || p.alpha >= 1. then
    invalid_arg "Annealer.place: alpha outside (0, 1)";
  if p.i_max < 1 then invalid_arg "Annealer.place: i_max < 1"

(* Weight of the all-pairs compaction term relative to Eq. 3: small enough
   not to distort the connection-priority objective, large enough to pull
   weakly-connected components into the pack. *)
let compaction_weight = 0.01

let objective chip nets =
  Energy.total chip nets +. (compaction_weight *. Energy.compaction chip)

(* Full-recompute cadence for the incrementally tracked energy: every
   [resync_interval] accepted moves the running value is replaced by a
   from-scratch [objective], pinning floating-point drift.  Between two
   re-syncs the drift is bounded by ~64 additions of ulp-scale rounding
   error — orders of magnitude below [best_margin]. *)
let resync_interval = 64

(* When the running energy comes within this margin of the best-so-far,
   the comparison is decided by an exact recompute, so the best placement
   (and the returned energy) never depend on accumulated drift. *)
let best_margin = 1e-6

let place ?(params = default_params) ~rng ~nets components =
  validate params;
  let chip = Chip.random rng components in
  let index = Energy.index ~n_components:(Array.length components) nets in
  let walk = Walk.create ~compaction_weight index chip in
  let energy = ref (Walk.objective walk) in
  let initial_energy = !energy in
  let best = ref (Walk.places walk) in
  let best_energy = ref !energy in
  let accepted = ref 0 and attempted = ref 0 in
  let temperature = ref params.t0 in
  let temperature_steps = ref 0 in
  let resyncs = ref 0 in
  let since_resync = ref 0 in
  let resync () =
    energy := Walk.objective walk;
    incr resyncs;
    since_resync := 0
  in
  Telemetry.span ~cat:"place" "sa.walk"
    ~args:[ ("t0", Float params.t0); ("i_max", Int params.i_max) ]
    (fun () ->
      while !temperature > params.t_min do
        incr temperature_steps;
        let accepted_before = !accepted in
        for _ = 1 to params.i_max do
          incr attempted;
          if Walk.propose rng walk then begin
            let delta = Walk.delta walk in
            let accept =
              delta < 0.
              || Mfb_util.Rng.float rng 1.0 < exp (-.delta /. !temperature)
            in
            if accept then begin
              incr accepted;
              energy := !energy +. delta;
              incr since_resync;
              if !since_resync >= resync_interval then resync ();
              if !energy < !best_energy +. best_margin then begin
                (* Within drift range of the best: decide exactly. *)
                resync ();
                if !energy < !best_energy then begin
                  best_energy := !energy;
                  best := Walk.places walk
                end
              end
            end
            else Walk.undo walk
          end
        done;
        (* One counter-series point and one histogram observation per
           temperature step: the SA acceptance trajectory of Alg. 2.  The
           observation must be drift-free, so re-sync first. *)
        resync ();
        Telemetry.sample ~cat:"place" "sa.acceptance_rate"
          (float_of_int (!accepted - accepted_before)
          /. float_of_int params.i_max);
        Telemetry.observe ~cat:"place" "sa.energy" !energy;
        temperature := !temperature *. params.alpha
      done);
  Telemetry.incr ~cat:"place" ~by:!accepted "sa.accepted";
  Telemetry.incr ~cat:"place" ~by:!attempted "sa.attempted";
  Telemetry.incr ~cat:"place" ~by:!temperature_steps "sa.temperature_steps";
  Telemetry.incr ~cat:"place" ~by:(Walk.terms walk) "delta_evals";
  Telemetry.incr ~cat:"place" ~by:!resyncs "resyncs";
  (* Tiny instances can defeat the random walk; the packed scanline
     construction is a free lower-effort candidate, so keep the better of
     the two. *)
  let scanline = Chip.scanline components in
  let scanline_energy = objective scanline nets in
  let chip, energy =
    if scanline_energy < !best_energy then (scanline, scanline_energy)
    else ({ chip with places = !best }, !best_energy)
  in
  { chip; energy; initial_energy; accepted = !accepted;
    attempted = !attempted; temperature_steps = !temperature_steps }

(* Parallel restarts under the split-then-reduce discipline: child RNGs
   are derived from [rng] before dispatch and the winner is the lowest
   energy in fixed restart-index order, so the outcome is independent of
   [jobs].  A single restart keeps drawing from [rng] directly, which
   preserves the historical single-run stream bit-for-bit. *)
let anneal_multi ?(params = default_params) ?(jobs = 1) ?(restarts = 1) ~rng
    ~nets components =
  if restarts < 1 then invalid_arg "Annealer.anneal_multi: restarts < 1";
  if restarts = 1 then place ~params ~rng ~nets components
  else begin
    let rngs = Mfb_util.Rng.split_n rng restarts in
    let results =
      Mfb_util.Pool.init ~label:"sa-restart" ~jobs restarts (fun i ->
          place ~params ~rng:rngs.(i) ~nets components)
    in
    Array.fold_left
      (fun best r -> if r.energy < best.energy then r else best)
      results.(0) results
  end
