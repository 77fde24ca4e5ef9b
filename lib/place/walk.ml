module Rng = Mfb_util.Rng

type t = {
  width : int;
  height : int;
  base_w : int array; (* unrotated component width *)
  base_h : int array;
  x : int array; (* anchor *)
  y : int array;
  rotated : bool array;
  w : int array; (* footprint, after rotation *)
  h : int array;
  cx : float array; (* footprint centre *)
  cy : float array;
  index : Energy.index;
  compaction_weight : float;
  mutable compaction_terms : int;
  (* The last applied move: the touched components ([t1 < 0] when there
     is one) and their anchor and orientation before and after it, as
     [x; y; rotated] of [t0] then of [t1]. *)
  mutable t0 : int;
  mutable t1 : int;
  before : int array;
  after : int array;
}

(* Every derived field follows from the anchor and orientation, with
   the arithmetic of [Chip.dims] and [Chip.center]. *)
let set t i x y rotated =
  let w = if rotated then t.base_h.(i) else t.base_w.(i) in
  let h = if rotated then t.base_w.(i) else t.base_h.(i) in
  t.x.(i) <- x;
  t.y.(i) <- y;
  t.rotated.(i) <- rotated;
  t.w.(i) <- w;
  t.h.(i) <- h;
  t.cx.(i) <- float_of_int x +. (float_of_int w /. 2.);
  t.cy.(i) <- float_of_int y +. (float_of_int h /. 2.)

let create ~compaction_weight index (chip : Chip.t) =
  let n = Array.length chip.components in
  let t =
    { width = chip.width; height = chip.height;
      base_w = Array.map (fun (c : Mfb_component.Component.t) -> c.width)
          chip.components;
      base_h = Array.map (fun (c : Mfb_component.Component.t) -> c.height)
          chip.components;
      x = Array.make n 0; y = Array.make n 0; rotated = Array.make n false;
      w = Array.make n 0; h = Array.make n 0;
      cx = Array.make n 0.; cy = Array.make n 0.;
      index; compaction_weight; compaction_terms = 0;
      t0 = -1; t1 = -1; before = Array.make 6 0; after = Array.make 6 0 }
  in
  Array.iteri (fun i (p : Chip.placement) -> set t i p.x p.y p.rotated)
    chip.places;
  t

let places t =
  Array.init (Array.length t.x) (fun i ->
      { Chip.x = t.x.(i); y = t.y.(i); rotated = t.rotated.(i) })

let save t buf =
  let put off i =
    if i >= 0 then begin
      buf.(off) <- t.x.(i);
      buf.(off + 1) <- t.y.(i);
      buf.(off + 2) <- Bool.to_int t.rotated.(i)
    end
  in
  put 0 t.t0;
  put 3 t.t1

let restore t buf =
  set t t.t0 buf.(0) buf.(1) (buf.(2) = 1);
  if t.t1 >= 0 then set t t.t1 buf.(3) buf.(4) (buf.(5) = 1)

let undo t = restore t t.before

(* [Chip.in_bounds] and [Chip.pair_legal] against every other component,
   on the flat arrays. *)
let legal_at t i =
  let xi = t.x.(i) and yi = t.y.(i) and wi = t.w.(i) and hi = t.h.(i) in
  let s = Chip.spacing in
  xi >= 1 && yi >= 1 && xi + wi <= t.width - 1 && yi + hi <= t.height - 1
  &&
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length t.x do
    let k = !j in
    if k <> i
       && not
            (xi + wi + s <= t.x.(k) || t.x.(k) + t.w.(k) + s <= xi
            || yi + hi + s <= t.y.(k) || t.y.(k) + t.h.(k) + s <= yi)
    then ok := false;
    incr j
  done;
  !ok

(* The move has already been applied: keep it when legal, else restore
   the saved state. *)
let finish t =
  if legal_at t t.t0 && (t.t1 < 0 || legal_at t t.t1) then begin
    save t t.after;
    true
  end
  else begin
    undo t;
    false
  end

let start t i j =
  t.t0 <- i;
  t.t1 <- j;
  save t t.before

(* Translate, rotate and swap weighted 3:1:2, drawing from [rng] in the
   same order as ever: the kind, then the component(s), then a
   translation's anchor. *)
let propose rng t =
  let n = Array.length t.x in
  match Rng.int rng 6 with
  | 0 | 1 | 2 ->
    n > 0
    && begin
      let i = Rng.int rng n in
      let x = 1 + Rng.int rng (max 1 (t.width - 2)) in
      let y = 1 + Rng.int rng (max 1 (t.height - 2)) in
      start t i (-1);
      set t i x y t.rotated.(i);
      finish t
    end
  | 3 ->
    n > 0
    && begin
      let i = Rng.int rng n in
      start t i (-1);
      set t i t.x.(i) t.y.(i) (not t.rotated.(i));
      finish t
    end
  | _ ->
    n >= 2
    && begin
      let i = Rng.int rng n in
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      start t i j;
      let xi = t.x.(i) and yi = t.y.(i) in
      set t i t.x.(j) t.y.(j) t.rotated.(i);
      set t j xi yi t.rotated.(j);
      finish t
    end

(* Centre distance, the arithmetic of [Chip.manhattan]. *)
let[@inline] mdis t i j =
  Float.abs (t.cx.(i) -. t.cx.(j)) +. Float.abs (t.cy.(i) -. t.cy.(j))

(* Compaction pairs holding a touched component, each once: [t0] with
   everyone but itself and [t1], then [t1] with everyone but itself. *)
let partial_compaction t =
  let n = Array.length t.x and i = t.t0 and k = t.t1 in
  let sum = ref 0. in
  for j = 0 to n - 1 do
    if j <> i && j <> k then sum := !sum +. mdis t i j
  done;
  if k >= 0 then
    for j = 0 to n - 1 do
      if j <> k then sum := !sum +. mdis t k j
    done;
  t.compaction_terms <-
    t.compaction_terms + if k >= 0 then (2 * n) - 3 else n - 1;
  !sum

let touched_nets t =
  Energy.incident_total t.index t.cx t.cy t.t0
    (if t.t1 < 0 then t.t0 else t.t1)

let delta t =
  let new_net = touched_nets t in
  let new_cmp = partial_compaction t in
  undo t;
  let old_net = touched_nets t in
  let old_cmp = partial_compaction t in
  restore t t.after;
  new_net -. old_net +. (t.compaction_weight *. (new_cmp -. old_cmp))

let objective t =
  let n = Array.length t.x in
  let ix = t.index and net = ref 0. in
  for k = 0 to Array.length ix.na - 1 do
    net := !net +. (mdis t ix.na.(k) ix.nb.(k) *. ix.ncp.(k))
  done;
  let cmp = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      cmp := !cmp +. mdis t i j
    done
  done;
  !net +. (t.compaction_weight *. !cmp)

let terms t = t.index.terms + t.compaction_terms
