(* 64-bit FNV-1a over a canonical encoding of the request.

   The graph part must not depend on how operations are numbered, so it
   is summarised structurally: every operation gets a label hash from
   its intrinsic attributes, the label is refined with the sorted hashes
   of its ancestors (computed in topological order) and, symmetrically,
   of its descendants (reverse topological order), and the fingerprint
   folds the *sorted* per-operation hashes.  Sorting removes the id
   order everywhere, while the ancestor/descendant refinement keeps the
   dependency structure in the key (a chain and a fan of identical
   operations hash differently). *)

module Seq_graph = Mfb_bioassay.Seq_graph
module Operation = Mfb_bioassay.Operation

type t = int64

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let mix_int64 h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := mix_byte !h (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
  done;
  !h

let mix_int h i = mix_int64 h (Int64.of_int i)
let mix_float h f = mix_int64 h (Int64.bits_of_float f)

let mix_string h s =
  let h = ref (mix_int h (String.length s)) in
  String.iter (fun c -> h := mix_byte !h (Char.code c)) s;
  !h

let mix_option mix h = function
  | None -> mix_int h 0
  | Some v -> mix (mix_int h 1) v

(* Intrinsic label of one operation — everything about the vertex except
   its id. *)
let op_label (op : Operation.t) =
  let h = fnv_offset in
  let h = mix_int h (Operation.kind_index op.kind) in
  let h = mix_float h op.duration in
  let h = mix_string h op.output.name in
  let h = mix_float h op.output.diffusion in
  mix_option mix_float h op.output.wash_override

let mix_sorted h hashes =
  List.fold_left mix_int64 (mix_int h (List.length hashes))
    (List.sort Int64.compare hashes)

let graph_fingerprint g =
  let n = Seq_graph.n_ops g in
  let labels = Array.map op_label (Seq_graph.ops g) in
  let order = Seq_graph.topo_order g in
  let anc = Array.make n 0L in
  List.iter
    (fun v ->
      anc.(v) <-
        mix_sorted (mix_int64 fnv_offset labels.(v))
          (List.map (fun p -> anc.(p)) (Seq_graph.parents g v)))
    order;
  let desc = Array.make n 0L in
  List.iter
    (fun v ->
      desc.(v) <-
        mix_sorted (mix_int64 fnv_offset labels.(v))
          (List.map (fun c -> desc.(c)) (Seq_graph.children g v)))
    (List.rev order);
  let node_hashes =
    List.init n (fun v -> mix_int64 (mix_int64 fnv_offset anc.(v)) desc.(v))
  in
  let h = mix_string fnv_offset (Seq_graph.name g) in
  let h = mix_int h n in
  let h = mix_int h (Seq_graph.n_edges g) in
  mix_sorted h node_hashes

(* Radius-1 neighborhood hash of every operation: its own label mixed
   with the sorted labels of its parents and, separately, of its
   children.  Invariant to id relabelling (labels are intrinsic, the
   neighbor multisets are sorted) yet sensitive to any local structural
   or attribute edit — the unit of similarity distance. *)
let neighborhood_hashes g =
  let labels = Array.map op_label (Seq_graph.ops g) in
  Array.init (Seq_graph.n_ops g) (fun v ->
      let around rel =
        List.map (fun u -> labels.(u)) (rel g v)
      in
      mix_sorted
        (mix_sorted (mix_int64 fnv_offset labels.(v))
           (around Seq_graph.parents))
        (around Seq_graph.children))

let mix_config h (cfg : Mfb_core.Config.t) =
  let h = mix_float h cfg.tc in
  let h = mix_float h cfg.we in
  let h = mix_float h cfg.beta in
  let h = mix_float h cfg.gamma in
  let h = mix_float h cfg.sa.t0 in
  let h = mix_float h cfg.sa.t_min in
  let h = mix_float h cfg.sa.alpha in
  let h = mix_int h cfg.sa.i_max in
  let h = mix_int h cfg.sa_restarts in
  let h = mix_int h cfg.seed in
  (* The backend changes the schedule, so a heuristic-cached entry must
     never answer an exact/portfolio request (and vice versa). *)
  let h =
    mix_string h (Mfb_schedule.Portfolio.backend_to_string cfg.backend)
  in
  mix_int h cfg.exact_fuel

let make ?(flow = "ours") ~config ~graph
    ~(allocation : Mfb_component.Allocation.t) () =
  let h = mix_string fnv_offset "mfb-serve-key-v2" in
  let h = mix_string h flow in
  let h = mix_int64 h (graph_fingerprint graph) in
  let h = mix_int h allocation.mixers in
  let h = mix_int h allocation.heaters in
  let h = mix_int h allocation.filters in
  let h = mix_int h allocation.detectors in
  mix_config h config

let equal = Int64.equal
let compare = Int64.compare
let to_hex k = Printf.sprintf "%016Lx" k
