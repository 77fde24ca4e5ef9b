type instance = {
  graph : Mfb_bioassay.Seq_graph.t;
  allocation : Mfb_component.Allocation.t;
}

let make graph vector =
  { graph; allocation = Mfb_component.Allocation.of_vector vector }

let pcr () = make (Mfb_bioassay.Benchmarks.pcr ()) (3, 0, 0, 0)
let ivd () = make (Mfb_bioassay.Benchmarks.ivd ()) (3, 0, 0, 2)
let cpa () = make (Mfb_bioassay.Benchmarks.cpa ()) (8, 0, 0, 2)
let synthetic1 () = make (Mfb_bioassay.Synthetic.synthetic1 ()) (3, 3, 2, 1)
let synthetic2 () = make (Mfb_bioassay.Synthetic.synthetic2 ()) (5, 2, 2, 2)
let synthetic3 () = make (Mfb_bioassay.Synthetic.synthetic3 ()) (6, 4, 4, 2)
let synthetic4 () = make (Mfb_bioassay.Synthetic.synthetic4 ()) (7, 4, 4, 3)

(* The one list of the suite, in Table-I row order: each name is its
   graph's name, and nothing is built until a constructor runs. *)
let table =
  [ ("PCR", pcr); ("IVD", ivd); ("CPA", cpa); ("Synthetic1", synthetic1);
    ("Synthetic2", synthetic2); ("Synthetic3", synthetic3);
    ("Synthetic4", synthetic4) ]

let names = List.map fst table

let all () = List.map (fun (_, build) -> build ()) table

(* Each (instance, flow) pair is an independent synthesis task, so the
   whole Table-I evaluation fans out over the pool: 14 tasks for the
   7-instance suite.  Results are re-paired in suite order, which the
   pool guarantees regardless of the worker count. *)
let run_pairs ?(jobs = 1) ?(config = Config.default) ?(instances = all ()) ()
    =
  let tasks =
    List.concat_map (fun inst -> [ (inst, `Ours); (inst, `Ba) ]) instances
  in
  let results =
    Mfb_util.Pool.map ~label:"synthesis" ~jobs
      (fun (inst, variant) ->
        Flow.run ~config ~variant inst.graph inst.allocation)
      tasks
  in
  let rec pair = function
    | ours :: ba :: rest -> (ours, ba) :: pair rest
    | [] -> []
    | [ _ ] -> assert false
  in
  pair results

let find name =
  let lower = String.lowercase_ascii name in
  List.find_map
    (fun (n, build) ->
      if String.lowercase_ascii n = lower then Some (build ()) else None)
    table
