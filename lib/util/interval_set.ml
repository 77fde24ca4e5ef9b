(* Sorted list of intervals by (lo, hi).  Sets are small (a handful of
   occupation slots per resource), so a list keeps the code simple and the
   constant factors low. *)

type t = Interval.t list

let empty = []

let is_empty s = s = []

let add iv s =
  if Interval.is_empty iv then s
  else begin
    let rec insert = function
      | [] -> [ iv ]
      | x :: rest as all ->
        if Interval.compare iv x <= 0 then iv :: all else x :: insert rest
    in
    insert s
  end

(* The list is sorted by start, so the scan stops at the first stored
   interval that starts at or after [iv]'s end. *)
let overlaps iv s =
  let rec loop = function
    | [] -> false
    | x :: rest ->
      Interval.lo x < Interval.hi iv && (Interval.overlaps iv x || loop rest)
  in
  loop s

let free_from t ~duration s =
  if duration < 0. then invalid_arg "Interval_set.free_from: negative duration";
  let rec loop t = function
    | [] -> t
    | x :: rest ->
      if Interval.hi x <= t then loop t rest
      else if Interval.lo x >= t +. duration then t
      else loop (Interval.hi x) rest
  in
  loop t s

let pp ppf s =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Interval.pp)
    s
