module Types = Mfb_schedule.Types
module Seq_graph = Mfb_bioassay.Seq_graph

let input_fluid op =
  Mfb_bioassay.Fluid.make
    ~name:(Printf.sprintf "input-o%d" op)
    ~diffusion:(Mfb_bioassay.Fluid.of_palette op).diffusion

let templates ~tc (sched : Types.t) =
  let g = sched.graph in
  let of_op op =
    let times = sched.times.(op) in
    let dispense =
      if Seq_graph.parents g op = [] then
        [ ( { Types.edge = (op, op); src = times.component;
              dst = times.component; removal = times.start -. tc;
              depart = times.start -. tc; arrive = times.start;
              fluid = input_fluid op },
            Routed.Dispense ) ]
      else []
    in
    let waste =
      if Seq_graph.children g op = [] then
        [ ( { Types.edge = (op, op); src = times.component;
              dst = times.component; removal = times.finish;
              depart = times.finish; arrive = times.finish +. tc;
              fluid = (Seq_graph.op g op).output },
            Routed.Waste ) ]
      else []
    in
    dispense @ waste
  in
  List.concat_map of_op (List.init (Seq_graph.n_ops g) Fun.id)
  |> List.sort (fun ((a : Types.transport), _) (b, _) ->
         Float.compare a.removal b.removal)

(* Slack lets an io run avoid busy windows without touching the schedule:
   a dispense may leave its reservoir early and stage in the channel; a
   waste run may stay in its component while the component is not needed
   (up to [deadline]), then park just outside and drain later. *)
let slacks = [ 0.; 0.5; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]

let with_slack kind ~deadline (tr : Types.transport) slack =
  match (kind : Routed.kind) with
  | Dispense -> { tr with removal = tr.removal -. slack }
  | Waste ->
    let removal = Float.min (tr.removal +. slack) deadline in
    { tr with removal;
      depart = tr.depart +. slack;
      arrive = tr.arrive +. slack }
  | Transport -> tr

(* The latest moment a sink's product may still sit inside its component:
   just early enough for the residue wash before the next operation
   there; unbounded when the component is done for the day. *)
let waste_deadline (sched : Types.t) op =
  let times = sched.times.(op) in
  let wash =
    Mfb_bioassay.Operation.wash_time (Seq_graph.op sched.graph op)
  in
  let next_start =
    List.fold_left
      (fun acc (_, (t : Types.op_times)) ->
        if t.start >= times.finish -. 1e-9 && t.start < acc then t.start
        else acc)
      infinity
      (List.filter
         (fun (other, _) -> other <> op)
         (Types.ops_on_component sched times.component))
  in
  Float.max times.finish (next_start -. wash)

let route_one ?(weight_update = true) grid ~tc ~deadline
    (tr : Types.transport) kind =
  let srcs, dsts = Routed.endpoints grid kind tr in
  let whole_window (tr' : Types.transport) ~delay =
    let iv = Routed.hold tr' ~delay Routed.Park in
    fun i -> Rgrid.conflict_free_at grid i iv tr'.fluid
  in
  let usable_for (tr' : Types.transport) =
    match (kind : Routed.kind) with
    | Waste | Transport ->
      (* Source-side parking matches the occupancy model exactly. *)
      Routed.usable grid tr' ~delay:0. ~src_ports:srcs
    | Dispense ->
      (* The staging cell sits near the (path-dependent) inlet, so require
         the conservative full window everywhere. *)
      whole_window tr' ~delay:0.
  in
  let attempt slack =
    let tr' = with_slack kind ~deadline tr slack in
    match
      Astar.search_multi grid ~srcs ~dsts ~usable:(usable_for tr')
        ~use_weights:weight_update
    with
    | Some path -> Some (tr', 0., path)
    | None -> None
  in
  (* When a dispense is boxed in during its window, arriving late is legal
     — it simply pushes the operation's start; the caller feeds the delay
     back through retiming. *)
  let attempt_late delay =
    match (kind : Routed.kind) with
    | Waste | Transport -> None
    | Dispense ->
      (match
         Astar.search_multi grid ~srcs ~dsts ~usable:(whole_window tr ~delay)
           ~use_weights:weight_update
       with
       | Some path -> Some (tr, delay, path)
       | None -> None)
  in
  let routed =
    match List.find_map attempt slacks with
    | Some _ as r -> r
    | None ->
      List.find_map attempt_late (List.filter (fun d -> d > 0.) slacks)
  in
  let routed, best_effort =
    match routed with
    | Some r -> (Some r, false)
    | None ->
      (* Best effort: tolerate the residual conflict rather than perturb
         the schedule (rare; reported through [unresolved]). *)
      let unblocked i = not (Rgrid.blocked_at grid i) in
      ( Option.map
          (fun path -> (tr, 0., path))
          (Astar.search_multi grid ~srcs ~dsts ~usable:unblocked
             ~use_weights:false),
        true )
  in
  match routed with
  | None -> None (* landlocked component: cannot happen on Chip layouts *)
  | Some (tr', delay, path) ->
    Some
      (Routed.commit_path ~weight_update grid ~tc kind tr' ~path ~delay,
       best_effort)

let route_all ?(weight_update = true) grid ~tc (sched : Types.t) =
  let routed =
    List.filter_map
      (fun ((tr : Types.transport), kind) ->
        let deadline =
          match (kind : Routed.kind) with
          | Waste -> waste_deadline sched (fst tr.edge)
          | Dispense | Transport -> tr.removal
        in
        route_one ~weight_update grid ~tc ~deadline tr kind)
      (templates ~tc sched)
  in
  ( List.map fst routed,
    List.length (List.filter (fun (_, be) -> be) routed) )

let finalize ~weight_update ~route_io grid ~tc sched tasks ~unresolved =
  let io, io_unresolved =
    if route_io then route_all ~weight_update grid ~tc sched else ([], 0)
  in
  Routed.finalize grid (List.rev_append io tasks)
    ~unresolved:(unresolved + io_unresolved)
