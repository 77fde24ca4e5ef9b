type t = {
  id : int;
  kind : Mfb_bioassay.Operation.kind;
  width : int;
  height : int;
}

let default_footprint = function
  | Mfb_bioassay.Operation.Mix -> (3, 3)
  | Mfb_bioassay.Operation.Heat -> (2, 2)
  | Mfb_bioassay.Operation.Filter -> (2, 2)
  | Mfb_bioassay.Operation.Detect -> (2, 2)

let make ~id ~kind =
  if id < 0 then invalid_arg "Component.make: negative id";
  let width, height = default_footprint kind in
  { id; kind; width; height }

let qualified c (op : Mfb_bioassay.Operation.t) =
  Mfb_bioassay.Operation.equal_kind c.kind op.kind

let kind_name = function
  | Mfb_bioassay.Operation.Mix -> "Mixer"
  | Mfb_bioassay.Operation.Heat -> "Heater"
  | Mfb_bioassay.Operation.Filter -> "Filter"
  | Mfb_bioassay.Operation.Detect -> "Detector"

let label c = Printf.sprintf "%s%d" (kind_name c.kind) c.id
