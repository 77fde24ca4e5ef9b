type params = {
  n_ops : int;
  kind_weights : int array;
  max_parents : int;
  layer_width : int;
  same_kind_bias : float;
  seed : int;
}

let default_params =
  { n_ops = 20; kind_weights = [| 4; 2; 1; 1 |]; max_parents = 2;
    layer_width = 4; same_kind_bias = 0.45; seed = 1 }

let validate p =
  if p.n_ops < 2 then invalid_arg "Synthetic.generate: n_ops < 2";
  if Array.length p.kind_weights <> 4 then
    invalid_arg "Synthetic.generate: kind_weights must have 4 entries";
  if Array.for_all (fun w -> w <= 0) p.kind_weights then
    invalid_arg "Synthetic.generate: all kind weights are zero";
  if Array.exists (fun w -> w < 0) p.kind_weights then
    invalid_arg "Synthetic.generate: negative kind weight";
  if p.max_parents < 1 then invalid_arg "Synthetic.generate: max_parents < 1";
  if p.layer_width < 1 then invalid_arg "Synthetic.generate: layer_width < 1";
  if p.same_kind_bias < 0. || p.same_kind_bias > 1. then
    invalid_arg "Synthetic.generate: same_kind_bias outside [0, 1]"

let draw_kind rng weights =
  let total = Array.fold_left ( + ) 0 weights in
  let x = Mfb_util.Rng.int rng total in
  let rec pick i acc =
    let acc = acc + weights.(i) in
    if x < acc then Operation.kind_of_index i else pick (i + 1) acc
  in
  pick 0 0

let duration_for rng kind =
  let lo, hi =
    match (kind : Operation.kind) with
    | Mix -> (4, 7)
    | Heat -> (3, 6)
    | Filter -> (3, 5)
    | Detect -> (2, 4)
  in
  float_of_int (Mfb_util.Rng.int_in rng lo hi)

(* Split [n_ops] into layers of width ~[layer_width] (each layer gets
   between 1 and layer_width ops, biased towards full width). *)
let cut_layers rng ~n_ops ~layer_width =
  let rec loop remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let w = min remaining (Mfb_util.Rng.int_in rng (max 1 (layer_width - 1)) layer_width) in
      loop (remaining - w) (w :: acc)
    end
  in
  loop n_ops []

let generate ~name p =
  validate p;
  let rng = Mfb_util.Rng.create p.seed in
  let layer_widths = cut_layers rng ~n_ops:p.n_ops ~layer_width:p.layer_width in
  let n_layers = List.length layer_widths in
  (* Assign ids layer by layer; remember each op's layer. *)
  let layer_of = Array.make p.n_ops 0 in
  let layer_array =
    let next = ref 0 in
    Array.of_list
      (List.mapi
         (fun li w ->
           Array.init w (fun _ ->
               let id = !next in
               incr next;
               layer_of.(id) <- li;
               id))
         layer_widths)
  in
  (* Edges first: each non-source op gets a primary parent in the previous
     layer (keeping depth meaningful) plus up to [max_parents - 1] extras
     from any earlier layer.  Kinds follow, so that an op can inherit its
     primary parent's kind — the chains Case-I binding thrives on. *)
  let primary_parent = Array.make p.n_ops None in
  let edges = ref [] in
  for li = 1 to n_layers - 1 do
    let prev = layer_array.(li - 1) in
    let pool = Array.concat (Array.to_list (Array.sub layer_array 0 li)) in
    Array.iter
      (fun id ->
        let primary = Mfb_util.Rng.choose rng prev in
        primary_parent.(id) <- Some primary;
        edges := (primary, id) :: !edges;
        let extra = Mfb_util.Rng.int rng p.max_parents in
        (* Edges into [id] are drawn only here, so its parents so far are
           the ones to skip. *)
        let rec add_extra parents k =
          if k > 0 then begin
            let candidate = Mfb_util.Rng.choose rng pool in
            if List.mem candidate parents then add_extra parents (k - 1)
            else begin
              edges := (candidate, id) :: !edges;
              add_extra (candidate :: parents) (k - 1)
            end
          end
        in
        add_extra [ primary ] extra)
      layer_array.(li)
  done;
  let kinds = Array.make p.n_ops Operation.Mix in
  let detect_weight_late li =
    (* Detections concentrate at the bottom of the DAG, like the read-out
       steps of real assays. *)
    if li = n_layers - 1 then 4 * p.kind_weights.(3)
    else if li = n_layers - 2 then p.kind_weights.(3)
    else 0
  in
  let draw_fresh_kind id =
    let weights = Array.copy p.kind_weights in
    weights.(3) <- detect_weight_late layer_of.(id);
    let weights =
      if Array.for_all (fun w -> w = 0) weights then p.kind_weights
      else weights
    in
    draw_kind rng weights
  in
  for id = 0 to p.n_ops - 1 do
    let inherited =
      match primary_parent.(id) with
      | Some parent
        when Mfb_util.Rng.float rng 1.0 < p.same_kind_bias
             && kinds.(parent) <> Operation.Detect ->
        Some kinds.(parent)
      | Some _ | None -> None
    in
    kinds.(id) <-
      (match inherited with Some k -> k | None -> draw_fresh_kind id)
  done;
  (* An assay that may detect should detect at least once: make the last
     operation a read-out when the weights allow but the draw missed. *)
  if p.kind_weights.(3) > 0
     && not (Array.exists (( = ) Operation.Detect) kinds)
  then kinds.(p.n_ops - 1) <- Operation.Detect;
  let ops =
    List.init p.n_ops (fun id ->
        let kind = kinds.(id) in
        let duration = duration_for rng kind in
        let output =
          Fluid.of_palette (Mfb_util.Rng.int rng (Array.length Fluid.palette))
        in
        Operation.make ~id ~kind ~duration ~output)
  in
  Seq_graph.create ~name ~ops ~edges:!edges

let table1 ~name ~n_ops ~weights ~seed =
  generate ~name
    { n_ops; kind_weights = weights; max_parents = 2;
      layer_width = max 3 (n_ops / 6); same_kind_bias = 0.45; seed }

(* Kind weights follow the allocation vectors of Table I so the generated
   workload exercises every allocated component type. *)
let synthetic1 () = table1 ~name:"Synthetic1" ~n_ops:20 ~weights:[| 3; 3; 2; 1 |] ~seed:101
let synthetic2 () = table1 ~name:"Synthetic2" ~n_ops:30 ~weights:[| 5; 2; 2; 2 |] ~seed:102
let synthetic3 () = table1 ~name:"Synthetic3" ~n_ops:40 ~weights:[| 6; 4; 4; 2 |] ~seed:103
let synthetic4 () = table1 ~name:"Synthetic4" ~n_ops:50 ~weights:[| 7; 4; 4; 3 |] ~seed:104

let all () = [ synthetic1 (); synthetic2 (); synthetic3 (); synthetic4 () ]
