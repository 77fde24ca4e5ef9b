module Rng = Mfb_util.Rng

type undo = unit -> unit

(* A move is legal when the touched components stay in bounds and respect
   spacing against everyone else.  Plain loop with early exit — this runs
   once per attempted move, so it must not allocate. *)
let touched_legal chip touched =
  List.for_all
    (fun i ->
      Chip.in_bounds chip i
      &&
      let n = Array.length chip.Chip.components in
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < n do
        if !j <> i && not (Chip.pair_legal chip i !j) then ok := false;
        incr j
      done;
      !ok)
    touched

let finish chip touched undo =
  if touched_legal chip touched then Some (touched, undo)
  else begin
    undo ();
    None
  end

let translate_t rng (chip : Chip.t) =
  let n = Array.length chip.components in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let old = chip.places.(i) in
    let x = 1 + Rng.int rng (max 1 (chip.width - 2)) in
    let y = 1 + Rng.int rng (max 1 (chip.height - 2)) in
    chip.places.(i) <- { old with x; y };
    finish chip [ i ] (fun () -> chip.places.(i) <- old)
  end

let rotate_t rng (chip : Chip.t) =
  let n = Array.length chip.components in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let old = chip.places.(i) in
    chip.places.(i) <- { old with rotated = not old.rotated };
    finish chip [ i ] (fun () -> chip.places.(i) <- old)
  end

let swap_t rng (chip : Chip.t) =
  let n = Array.length chip.components in
  if n < 2 then None
  else begin
    let i = Rng.int rng n in
    let j = (i + 1 + Rng.int rng (n - 1)) mod n in
    let pi = chip.places.(i) and pj = chip.places.(j) in
    chip.places.(i) <- { pj with rotated = pi.rotated };
    chip.places.(j) <- { pi with rotated = pj.rotated };
    finish chip [ i; j ]
      (fun () ->
        chip.places.(i) <- pi;
        chip.places.(j) <- pj)
  end


let random_move_touched rng chip =
  match Rng.int rng 6 with
  | 0 | 1 | 2 -> translate_t rng chip
  | 3 -> rotate_t rng chip
  | 4 | 5 -> swap_t rng chip
  | _ -> assert false

let random_move rng chip = Option.map snd (random_move_touched rng chip)
