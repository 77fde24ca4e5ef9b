(* Helpers shared by the bench programs: command-line lookup, fatal
   errors and nearest-rank percentiles. *)

(* The value after [name] on the command line, parsed; [default] when
   the flag is absent or its value does not parse. *)
let arg_value name default parse =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then default
    else if Sys.argv.(i) = name then
      match parse Sys.argv.(i + 1) with Some v -> v | None -> default
    else scan (i + 1)
  in
  scan 0

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Nearest-rank percentile [p] (in 0..1) of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
