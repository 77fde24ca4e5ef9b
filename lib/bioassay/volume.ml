type t = {
  graph : Seq_graph.t;
  production_of : float array;           (* per op *)
  edge_volumes : (int * int, float) Hashtbl.t;
}

let analyse g =
  let n = Seq_graph.n_ops g in
  let production_of = Array.make n 0. in
  let edge_volumes = Hashtbl.create (Seq_graph.n_edges g) in
  (* Walk the reverse topological order: children's demands are known
     before their parents are visited. *)
  let reverse_topo = List.rev (Seq_graph.topo_order g) in
  List.iter
    (fun op ->
      let demand =
        match Seq_graph.children g op with
        | [] -> 1.0 (* a sink delivers one chamber unit off-chip *)
        | children ->
          List.fold_left
            (fun acc child -> acc +. Hashtbl.find edge_volumes (op, child))
            0. children
      in
      production_of.(op) <- demand;
      let parents = Seq_graph.parents g op in
      let share =
        match parents with
        | [] -> 0.
        | _ -> demand /. float_of_int (List.length parents)
      in
      List.iter
        (fun parent -> Hashtbl.replace edge_volumes (parent, op) share)
        parents)
    reverse_topo;
  { graph = g; production_of; edge_volumes }

let edge_volume t e =
  match Hashtbl.find_opt t.edge_volumes e with
  | Some v -> v
  | None -> raise Not_found

let external_input t op =
  let from_parents =
    List.fold_left
      (fun acc parent -> acc +. edge_volume t (parent, op))
      0.
      (Seq_graph.parents t.graph op)
  in
  Float.max 0. (t.production_of.(op) -. from_parents)

let total_reagent t =
  List.fold_left
    (fun acc op -> acc +. external_input t op)
    0.
    (List.init (Seq_graph.n_ops t.graph) Fun.id)
