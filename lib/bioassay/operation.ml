type kind = Mix | Heat | Filter | Detect

type t = { id : int; kind : kind; duration : float; output : Fluid.t }

let make ~id ~kind ~duration ~output =
  if id < 0 then invalid_arg "Operation.make: negative id";
  if not (Float.is_finite duration) || duration <= 0. then
    invalid_arg "Operation.make: duration must be positive";
  { id; kind; duration; output }

let kind_to_string = function
  | Mix -> "Mix"
  | Heat -> "Heat"
  | Filter -> "Filter"
  | Detect -> "Detect"

let kind_index = function Mix -> 0 | Heat -> 1 | Filter -> 2 | Detect -> 3

let kind_of_index = function
  | 0 -> Mix
  | 1 -> Heat
  | 2 -> Filter
  | 3 -> Detect
  | n -> invalid_arg (Printf.sprintf "Operation.kind_of_index: %d" n)

let equal_kind (a : kind) (b : kind) = a = b

let wash_time op = Fluid.wash_time op.output

let pp ppf op =
  Format.fprintf ppf "o%d:%s(%.1fs,%a)" op.id (kind_to_string op.kind)
    op.duration Fluid.pp op.output
