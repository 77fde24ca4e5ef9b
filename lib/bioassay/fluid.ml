type t = { name : string; diffusion : float; wash_override : float option }

let make ~name ~diffusion =
  if not (Float.is_finite diffusion) || diffusion <= 0. then
    invalid_arg "Fluid.make: diffusion must be positive and finite";
  { name; diffusion; wash_override = None }

let with_wash_time f w =
  if not (Float.is_finite w) || w <= 0. then
    invalid_arg "Fluid.with_wash_time: wash time must be positive and finite";
  { f with wash_override = Some w }

(* Log-linear fit through (1e-5, 0.2 s) and (5e-8, 6.0 s):
   slope = (6.0 - 0.2) / (log10 1e-5 - log10 5e-8) = 5.8 / 2.301. *)
let slope = 5.8 /. 2.3010299956639813
let intercept = 0.2 -. (slope *. 5.)

let wash_time_of_diffusion d =
  if not (Float.is_finite d) || d <= 0. then
    invalid_arg "Fluid.wash_time_of_diffusion: diffusion must be positive";
  let t = (slope *. -.(Float.log10 d)) +. intercept in
  Float.min 12.0 (Float.max 0.2 t)

let wash_time f =
  match f.wash_override with
  | Some w -> w
  | None -> wash_time_of_diffusion f.diffusion

let palette =
  [|
    make ~name:"lysis-buffer" ~diffusion:1e-5;
    make ~name:"glucose-solution" ~diffusion:5e-6;
    make ~name:"reagent-B" ~diffusion:1e-6;
    make ~name:"serum-protein" ~diffusion:4e-7;
    make ~name:"antibody-mix" ~diffusion:1e-7;
    make ~name:"plasmid-dna" ~diffusion:5e-8;
    make ~name:"genomic-dna" ~diffusion:2e-8;
    make ~name:"virus-sample" ~diffusion:1e-8;
  |]

let of_palette i =
  let n = Array.length palette in
  palette.(((i mod n) + n) mod n)

let equal a b =
  String.equal a.name b.name && a.diffusion = b.diffusion
  && a.wash_override = b.wash_override

let pp ppf f = Format.fprintf ppf "%s(D=%g)" f.name f.diffusion
