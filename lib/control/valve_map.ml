module Routed = Mfb_route.Routed
module Rgrid = Mfb_route.Rgrid

type t = {
  site_list : (int * int) list;
  site_index : (int * int, int) Hashtbl.t;
}

let of_routing (result : Routed.result) =
  let grid = result.grid in
  let used = Hashtbl.create 64 in
  List.iter (fun xy -> Hashtbl.replace used xy ()) (Rgrid.used_cells grid);
  let is_used xy = Hashtbl.mem used xy in
  let junctions =
    Hashtbl.fold
      (fun xy () acc ->
        let degree =
          List.length (List.filter is_used (Rgrid.neighbours grid xy))
        in
        if degree >= 3 then xy :: acc else acc)
      used []
  in
  (* Isolation valves at ports that actually carry traffic. *)
  let ports =
    List.concat_map
      (fun (task : Routed.task) ->
        match task.path with
        | [] -> []
        | first :: rest ->
          let last = List.fold_left (fun _ xy -> xy) first rest in
          [ first; last ])
      result.tasks
  in
  let site_list = List.sort_uniq compare (junctions @ ports) in
  let site_index = Hashtbl.create (List.length site_list) in
  List.iteri (fun i xy -> Hashtbl.replace site_index xy i) site_list;
  { site_list; site_index }

let count t = List.length t.site_list

let sites t = t.site_list

let index t xy = Hashtbl.find_opt t.site_index xy
