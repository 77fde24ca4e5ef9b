module Component = Mfb_component.Component

type placement = { x : int; y : int; rotated : bool }

type t = {
  width : int;
  height : int;
  components : Component.t array;
  places : placement array;
}

let spacing = 1

let size_for components =
  let area =
    Array.fold_left
      (fun acc (c : Component.t) -> acc + ((c.width + 2) * (c.height + 2)))
      0 components
  in
  let side = max 12 (int_of_float (ceil (sqrt (2.25 *. float_of_int area)))) in
  (side, side)

let dims (c : Component.t) rotated =
  if rotated then (c.height, c.width) else (c.width, c.height)

let footprint chip i =
  let c = chip.components.(i) and p = chip.places.(i) in
  let w, h = dims c p.rotated in
  (p.x, p.y, w, h)

let center chip i =
  let x, y, w, h = footprint chip i in
  (float_of_int x +. (float_of_int w /. 2.),
   float_of_int y +. (float_of_int h /. 2.))

let in_bounds chip i =
  let x, y, w, h = footprint chip i in
  x >= 1 && y >= 1 && x + w <= chip.width - 1 && y + h <= chip.height - 1

let pair_legal chip i j =
  let xi, yi, wi, hi = footprint chip i in
  let xj, yj, wj, hj = footprint chip j in
  (* Expand one rectangle by [spacing] and require disjointness. *)
  xi + wi + spacing <= xj || xj + wj + spacing <= xi
  || yi + hi + spacing <= yj || yj + hj + spacing <= yi

let legal chip =
  let n = Array.length chip.components in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (in_bounds chip i) then ok := false
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (pair_legal chip i j) then ok := false
    done
  done;
  !ok

let manhattan chip i j =
  let xi, yi = center chip i and xj, yj = center chip j in
  Float.abs (xi -. xj) +. Float.abs (yi -. yj)

let blocked_cells chip =
  let cells = ref [] in
  Array.iteri
    (fun i _ ->
      let x, y, w, h = footprint chip i in
      for cx = x to x + w - 1 do
        for cy = y to y + h - 1 do
          cells := (cx, cy) :: !cells
        done
      done)
    chip.components;
  !cells

let copy chip = { chip with places = Array.copy chip.places }

let scanline components =
  let width, height = size_for components in
  let places = Array.make (Array.length components) { x = 1; y = 1; rotated = false } in
  let chip = { width; height; components; places } in
  let cursor_x = ref 1 and cursor_y = ref 1 and row_height = ref 0 in
  Array.iteri
    (fun i (c : Component.t) ->
      if !cursor_x + c.width + spacing > width - 1 then begin
        cursor_x := 1;
        cursor_y := !cursor_y + !row_height + spacing;
        row_height := 0
      end;
      places.(i) <- { x = !cursor_x; y = !cursor_y; rotated = false };
      cursor_x := !cursor_x + c.width + spacing;
      row_height := max !row_height c.height)
    components;
  chip

let random rng components =
  let width, height = size_for components in
  let n = Array.length components in
  let chip =
    { width; height; components;
      places = Array.make n { x = 1; y = 1; rotated = false } }
  in
  let place_one i =
    let c = components.(i) in
    let rec attempt k =
      if k = 0 then false
      else begin
        let rotated = Mfb_util.Rng.bool rng in
        let w, h = dims c rotated in
        let x = 1 + Mfb_util.Rng.int rng (max 1 (width - w - 1)) in
        let y = 1 + Mfb_util.Rng.int rng (max 1 (height - h - 1)) in
        chip.places.(i) <- { x; y; rotated };
        let clash = ref false in
        for j = 0 to i - 1 do
          if not (pair_legal chip i j) then clash := true
        done;
        if in_bounds chip i && not !clash then true else attempt (k - 1)
      end
    in
    attempt 200
  in
  let all_placed =
    let rec loop i = i >= n || (place_one i && loop (i + 1)) in
    loop 0
  in
  if all_placed then chip else scanline components
