type t = { lo : float; hi : float }

let make lo hi =
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Interval.make: non-finite bound";
  if hi < lo then invalid_arg "Interval.make: hi < lo";
  { lo; hi }

let lo iv = iv.lo
let hi iv = iv.hi
let duration iv = iv.hi -. iv.lo
let is_empty iv = iv.hi = iv.lo
let overlaps a b =
  (not (is_empty a)) && (not (is_empty b)) && a.lo < b.hi && b.lo < a.hi
let contains iv t = iv.lo <= t && t < iv.hi
let shift iv dt = make (iv.lo +. dt) (iv.hi +. dt)

let compare a b =
  let c = Float.compare a.lo b.lo in
  if c <> 0 then c else Float.compare a.hi b.hi

let pp ppf iv = Format.fprintf ppf "[%g, %g)" iv.lo iv.hi
