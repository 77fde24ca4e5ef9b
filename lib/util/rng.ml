(* Splitmix64 (Steele, Lea, Flood 2014): fast, passes BigCrush, trivially
   seedable — ideal for reproducible experiments. *)

type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 rng =
  rng.state <- Int64.add rng.state gamma;
  let z = rng.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  let mask = Int64.shift_right_logical (next_int64 rng) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in rng lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int rng (hi - lo + 1)

let float rng bound =
  let bits = Int64.shift_right_logical (next_int64 rng) 11 in
  (* 53 random bits scaled to [0, 1). *)
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool rng = Int64.logand (next_int64 rng) 1L = 1L

let choose rng arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int rng (Array.length arr))

let split rng = { state = next_int64 rng }

let split_n rng n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split rng)
