let sum xs = List.fold_left ( +. ) 0. xs

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let percent_improvement ~ours ~baseline =
  if baseline = 0. then 0. else (baseline -. ours) /. baseline *. 100.

let percent_increase ~ours ~baseline =
  if baseline = 0. then 0. else (ours -. baseline) /. baseline *. 100.
