module Types = Mfb_schedule.Types
module Routed = Mfb_route.Routed
module Interval = Mfb_util.Interval

type activity =
  | Idle
  | Executing of int
  | Holding of int
  | Washing of int

type snapshot = {
  time : float;
  components : activity array;
  cells : ((int * int) * Mfb_bioassay.Fluid.t) list;
}

type t = {
  tc : float;
  chip : Mfb_place.Chip.t;
  schedule : Types.t;
  occupancy : ((int * int) * Interval.t * Mfb_bioassay.Fluid.t) list;
  removal_of : int -> float option;
      (* when an operation's output left its component, if ever tracked *)
}

let create ~tc ~chip ~(schedule : Types.t) ~(routing : Routed.result) =
  let occupancy =
    List.concat_map
      (fun (task : Routed.task) ->
        List.map
          (fun (xy, iv) -> (xy, iv, task.transport.Types.fluid))
          (Routed.occupancy ~tc task))
      routing.tasks
  in
  let removal_table = Hashtbl.create 16 in
  List.iter
    (fun (tr : Types.transport) ->
      let producer = fst tr.edge in
      let current =
        Option.value ~default:infinity (Hashtbl.find_opt removal_table producer)
      in
      Hashtbl.replace removal_table producer (Float.min current tr.removal))
    schedule.transports;
  (* In-place consumption removes the fluid at the consumer's start. *)
  Array.iteri
    (fun _op (times : Types.op_times) ->
      match times.in_place_parent with
      | Some parent ->
        let current =
          Option.value ~default:infinity (Hashtbl.find_opt removal_table parent)
        in
        Hashtbl.replace removal_table parent (Float.min current times.start)
      | None -> ())
    schedule.times;
  { tc; chip; schedule; occupancy;
    removal_of = (fun op -> Hashtbl.find_opt removal_table op) }

let events sim =
  let times = ref [] in
  let push t = times := t :: !times in
  Array.iter
    (fun (t : Types.op_times) ->
      push t.start;
      push t.finish)
    sim.schedule.times;
  List.iter
    (fun (w : Types.wash_event) ->
      push w.wash_start;
      push (w.wash_start +. w.wash_duration))
    sim.schedule.washes;
  List.iter
    (fun (_, iv, _) ->
      push (Interval.lo iv);
      push (Interval.hi iv))
    sim.occupancy;
  List.sort_uniq Float.compare !times

let activity_at sim c time =
  let executing =
    Array.to_seq sim.schedule.times
    |> Seq.zip (Seq.ints 0)
    |> Seq.find_map (fun (op, (t : Types.op_times)) ->
           if t.component = c && t.start <= time && time < t.finish then
             Some (Executing op)
           else None)
  in
  match executing with
  | Some a -> a
  | None ->
    let washing =
      List.find_map
        (fun (w : Types.wash_event) ->
          if w.component = c && w.wash_start <= time
             && time < w.wash_start +. w.wash_duration
          then Some (Washing w.residue_op)
          else None)
        sim.schedule.washes
    in
    (match washing with
     | Some a -> a
     | None ->
       let holding =
         Array.to_seq sim.schedule.times
         |> Seq.zip (Seq.ints 0)
         |> Seq.find_map (fun (op, (t : Types.op_times)) ->
                if t.component <> c then None
                else begin
                  let removal =
                    Option.value ~default:infinity (sim.removal_of op)
                  in
                  if t.finish <= time && time < removal then Some (Holding op)
                  else None
                end)
       in
       Option.value ~default:Idle holding)

let state_at sim time =
  let n = Array.length sim.schedule.components in
  {
    time;
    components = Array.init n (fun c -> activity_at sim c time);
    cells =
      List.filter_map
        (fun (xy, iv, fluid) ->
          if Interval.contains iv time then Some (xy, fluid) else None)
        sim.occupancy;
  }

let kind_char = function
  | Mfb_bioassay.Operation.Mix -> 'M'
  | Mfb_bioassay.Operation.Heat -> 'H'
  | Mfb_bioassay.Operation.Filter -> 'F'
  | Mfb_bioassay.Operation.Detect -> 'D'

let frame sim time =
  let chip = sim.chip in
  let snap = state_at sim time in
  let canvas = Array.make_matrix chip.height chip.width '.' in
  List.iter (fun ((x, y), _) -> canvas.(y).(x) <- '*') snap.cells;
  Array.iteri
    (fun i (c : Mfb_component.Component.t) ->
      let x, y, w, h = Mfb_place.Chip.footprint chip i in
      let ch =
        match snap.components.(i) with
        | Executing _ -> kind_char c.kind
        | Washing _ -> '~'
        | Holding _ -> Char.lowercase_ascii (kind_char c.kind)
        | Idle -> '_'
      in
      for cx = x to x + w - 1 do
        for cy = y to y + h - 1 do
          canvas.(cy).(cx) <- ch
        done
      done)
    chip.components;
  let buf = Buffer.create (chip.width * chip.height * 2) in
  Buffer.add_string buf (Printf.sprintf "t = %.1f s\n" time);
  Array.iter
    (fun row ->
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    canvas;
  Buffer.contents buf
