let mix ~id ?(duration = 5.) fluid =
  Operation.make ~id ~kind:Mix ~duration ~output:fluid

let heat ~id ?(duration = 4.) fluid =
  Operation.make ~id ~kind:Heat ~duration ~output:fluid

let detect ~id ?(duration = 3.) fluid =
  Operation.make ~id ~kind:Detect ~duration ~output:fluid

(* Deterministic fluid assignment: cycle through the palette with a stride
   so that neighbouring operations get distinct diffusion coefficients. *)
let fluid_for i = Fluid.of_palette (i * 3)

let pcr () =
  let ops =
    List.init 7 (fun id -> mix ~id (fluid_for id))
  in
  (* Binary mixing tree: leaves 0-3, intermediates 4-5, root 6. *)
  let edges = [ (0, 4); (1, 4); (2, 5); (3, 5); (4, 6); (5, 6) ] in
  Seq_graph.create ~name:"PCR" ~ops ~edges

let ivd () =
  (* 3 samples x 2 assays: mixes 0-5, detections 6-11. *)
  let mixes = List.init 6 (fun id -> mix ~id (fluid_for id)) in
  let detects =
    List.init 6 (fun k -> detect ~id:(6 + k) (fluid_for (6 + k)))
  in
  let edges = List.init 6 (fun k -> (k, 6 + k)) in
  Seq_graph.create ~name:"IVD" ~ops:(mixes @ detects) ~edges

let cpa () =
  (* Dilution tree: node 0 is the root mix; nodes 1-2, 3-6, 7-14 are the
     successive levels (15 mixes, 8 leaves: ids 7-14).  Each leaf feeds a
     4-mix reagent chain and a final detection. *)
  let tree_edges =
    List.concat_map (fun i -> [ (i, (2 * i) + 1); (i, (2 * i) + 2) ])
      [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  let chain_base leaf_rank = 15 + (leaf_rank * 4) in
  let chain_edges =
    List.concat_map
      (fun leaf_rank ->
        let leaf = 7 + leaf_rank in
        let base = chain_base leaf_rank in
        (leaf, base)
        :: List.init 3 (fun k -> (base + k, base + k + 1)))
      (List.init 8 Fun.id)
  in
  let detect_edges =
    List.init 8 (fun leaf_rank -> (chain_base leaf_rank + 3, 47 + leaf_rank))
  in
  let ops =
    List.init 47 (fun id -> mix ~id (fluid_for id))
    @ List.init 8 (fun k -> detect ~id:(47 + k) (fluid_for (47 + k)))
  in
  Seq_graph.create ~name:"CPA" ~ops
    ~edges:(tree_edges @ chain_edges @ detect_edges)

let fig2_example () =
  (* Ten operations; ids here are the paper's o1..o10 minus one.  Mix
     durations 5 s, heat 4 s, detect 1 s reproduce the priority value 21
     for o1 quoted in §IV-A (path o1 -> o5 -> o7 -> o10 -> sink, tc = 2). *)
  let f = Fluid.of_palette in
  let ops =
    [
      mix ~id:0 (f 7);          (* o1: hard-to-wash output (10 s in Fig. 2) *)
      mix ~id:1 (f 0);          (* o2 *)
      mix ~id:2 (f 2);          (* o3 *)
      mix ~id:3 (f 1);          (* o4 *)
      heat ~id:4 ~duration:4. (f 3);  (* o5 *)
      mix ~id:5 (f 4);          (* o6 *)
      mix ~id:6 (f 2);          (* o7 *)
      heat ~id:7 ~duration:4. (f 5);  (* o8 *)
      mix ~id:8 (f 1);          (* o9 *)
      detect ~id:9 ~duration:1. (f 0); (* o10 *)
    ]
  in
  let edges =
    [
      (0, 4); (* o1 -> o5 *)
      (4, 6); (* o5 -> o7 *)
      (1, 6); (* o2 -> o7 *)
      (2, 5); (* o3 -> o6 *)
      (3, 5); (* o4 -> o6 *)
      (5, 7); (* o6 -> o8 *)
      (6, 9); (* o7 -> o10 *)
      (7, 8); (* o8 -> o9 *)
      (8, 9); (* o9 -> o10 *)
    ]
  in
  Seq_graph.create ~name:"Fig2-example" ~ops ~edges
