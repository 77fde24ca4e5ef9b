let sum xs = List.fold_left ( +. ) 0. xs

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let logs = List.map (fun x ->
        if x <= 0. then invalid_arg "Stats.geomean: non-positive value"
        else log x)
        xs
    in
    exp (mean logs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left Float.min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left Float.max x xs

let percent_improvement ~ours ~baseline =
  if baseline = 0. then 0. else (baseline -. ours) /. baseline *. 100.

let percent_increase ~ours ~baseline =
  if baseline = 0. then 0. else (ours -. baseline) /. baseline *. 100.
