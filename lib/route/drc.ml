module Chip = Mfb_place.Chip

type violation = { rule : string; message : string }

let check (chip : Chip.t) (routing : Routed.result) =
  let grid = routing.grid in
  let violations = ref [] in
  let flag rule fmt =
    Printf.ksprintf
      (fun message -> violations := { rule; message } :: !violations)
      fmt
  in
  (* Placement rules. *)
  let n = Array.length chip.components in
  for i = 0 to n - 1 do
    if not (Chip.in_bounds chip i) then
      flag "placement" "component %d out of bounds" i;
    for j = i + 1 to n - 1 do
      if not (Chip.pair_legal chip i j) then
        flag "placement" "components %d and %d violate spacing" i j
    done
  done;
  (* Path rules. *)
  let path_cells = Hashtbl.create 64 in
  List.iter
    (fun (task : Routed.task) ->
      let p, o = task.transport.edge in
      let describe = Printf.sprintf "o%d->o%d" p o in
      (match task.path with
       | [] -> flag "path" "%s has an empty path" describe
       | first :: rest ->
         let last = List.fold_left (fun _ xy -> xy) first rest in
         let on_border (x, y) =
           x = 0 || y = 0 || x = Rgrid.width grid - 1
           || y = Rgrid.height grid - 1
         in
         (match task.kind with
          | Routed.Transport ->
            if not (List.mem first (Rgrid.ports grid task.transport.src)) then
              flag "port" "%s does not start at a source port" describe;
            if not (List.mem last (Rgrid.ports grid task.transport.dst)) then
              flag "port" "%s does not end at a destination port" describe
          | Routed.Dispense ->
            if not (on_border first) then
              flag "port" "dispense %s does not start at the border" describe;
            if not (List.mem last (Rgrid.ports grid task.transport.dst)) then
              flag "port" "dispense %s does not reach a component port"
                describe
          | Routed.Waste ->
            if not (List.mem first (Rgrid.ports grid task.transport.src)) then
              flag "port" "waste %s does not start at a component port"
                describe;
            if not (on_border last) then
              flag "port" "waste %s does not reach the border" describe);
         let rec walk = function
           | (x1, y1) :: (((x2, y2) :: _) as tl) ->
             if abs (x1 - x2) + abs (y1 - y2) <> 1 then
               flag "path" "%s jumps from (%d,%d) to (%d,%d)" describe x1 y1
                 x2 y2;
             walk tl
           | [ _ ] | [] -> ()
         in
         walk task.path;
         List.iter
           (fun xy ->
             Hashtbl.replace path_cells xy ();
             if not (Rgrid.in_bounds grid xy) then
               flag "path" "%s leaves the grid at (%d,%d)" describe (fst xy)
                 (snd xy)
             else if Rgrid.blocked grid xy then
               flag "path" "%s crosses a component at (%d,%d)" describe
                 (fst xy) (snd xy))
           task.path))
    routing.tasks;
  (* Connectivity: every component involved in traffic must touch the
     channel network. *)
  let used = Rgrid.used_cells grid in
  let used_index = Hashtbl.create (List.length used) in
  List.iteri (fun i xy -> Hashtbl.replace used_index xy i) used;
  let dsu = Mfb_util.Dsu.create (max 1 (List.length used)) in
  List.iter
    (fun xy ->
      let i = Hashtbl.find used_index xy in
      List.iter
        (fun nb ->
          match Hashtbl.find_opt used_index nb with
          | Some j -> Mfb_util.Dsu.union dsu i j
          | None -> ())
        (Rgrid.neighbours grid xy))
    used;
  let active_components =
    List.concat_map
      (fun (task : Routed.task) ->
        [ task.transport.src; task.transport.dst ])
      routing.tasks
    |> List.sort_uniq compare
  in
  List.iter
    (fun c ->
      let attached =
        List.exists
          (fun port -> Hashtbl.mem used_index port)
          (Rgrid.ports grid c)
      in
      if not attached then
        flag "connectivity" "component %d exchanges fluid but no channel \
                             reaches any of its ports" c)
    active_components;
  (* Every occupied grid cell must belong to some routed path. *)
  List.iter
    (fun xy ->
      if not (Hashtbl.mem path_cells xy) then
        flag "occupation" "cell (%d,%d) is occupied but on no path" (fst xy)
          (snd xy))
    used;
  List.rev !violations
