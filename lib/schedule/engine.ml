module Seq_graph = Mfb_bioassay.Seq_graph
module Operation = Mfb_bioassay.Operation
module Fluid = Mfb_bioassay.Fluid
module Allocation = Mfb_component.Allocation
module Component = Mfb_component.Component
module Interval = Mfb_util.Interval
module Interval_set = Mfb_util.Interval_set
module Telemetry = Mfb_util.Telemetry

(* Where the output fluid of a scheduled operation currently is. *)
type fluid_state = {
  home : int;                      (* producing component id *)
  produced_at : float;
  mutable copies : int;            (* out-edges not yet consumed *)
  mutable removed_at : float option; (* when it left [home] *)
  mutable stored : float option;   (* unit mode: in the unit since *)
}

type comp_state = {
  comp : Component.t;
  mutable ready : float;           (* free-and-clean time when no resident *)
  mutable resident : int option;   (* producer op of the fluid inside *)
}

type state = {
  graph : Seq_graph.t;
  tc : float;
  storage : [ `Channels | `Unit ];
  comps : comp_state array;
  fluids : fluid_state option array;   (* per op, set once scheduled *)
  times : Types.op_times option array;
  mutable port_in : Interval_set.t;    (* unit entrance-port bookings *)
  mutable port_out : Interval_set.t;   (* unit exit-port bookings *)
  mutable transports : Types.transport list;
  mutable washes : Types.wash_event list;
}

let wash_of st op = Operation.wash_time (Seq_graph.op st.graph op)

let fluid_exn st op =
  match st.fluids.(op) with
  | Some fs -> fs
  | None -> invalid_arg (Printf.sprintf "Engine: op %d not yet scheduled" op)

let times_exn st op =
  match st.times.(op) with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Engine: op %d has no times" op)

(* Earliest time the fluid [fs] can leave its component: at once into a
   channel, or when the unit's entrance port is next free. *)
let earliest_eviction st fs =
  match st.storage with
  | `Channels -> fs.produced_at
  | `Unit -> Interval_set.free_from fs.produced_at ~duration:st.tc st.port_in

(* Earliest time a new operation could begin on [c], given its residue
   state (paper Eq. 2).  [consumable_parent] is set when the operation
   being bound could consume c's resident fluid in place. *)
let availability st c ~consumable_parent =
  match c.resident with
  | None -> c.ready
  | Some producer ->
    let fs = fluid_exn st producer in
    if consumable_parent = Some producer then fs.produced_at
    else earliest_eviction st fs +. wash_of st producer

(* The resident fluid of [c] can be consumed in place by [op] iff it was
   produced by a parent of [op] and no other child still needs it. *)
let in_place_candidate st c ~parents =
  match c.resident with
  | None -> None
  | Some producer ->
    let fs = fluid_exn st producer in
    if fs.copies = 1 && List.mem producer parents then Some producer
    else None

(* Evict the resident fluid of [c] so that a new operation can start at
   [start], and wash the component.  The fluid moves into a channel at
   [start - wash] (as late as possible, minimising channel cache time), or
   through the entrance port into the unit as soon as the port is free. *)
let evict st c ~start =
  match c.resident with
  | None -> ()
  | Some producer ->
    let fs = fluid_exn st producer in
    let wash = wash_of st producer in
    let at =
      match st.storage with
      | `Channels -> Float.max fs.produced_at (start -. wash)
      | `Unit ->
        let at = earliest_eviction st fs in
        st.port_in <-
          Interval_set.add (Interval.make at (at +. st.tc)) st.port_in;
        fs.stored <- Some (at +. st.tc);
        at
    in
    fs.removed_at <- Some at;
    Telemetry.incr ~cat:"schedule" "washes.evict";
    st.washes <-
      { Types.component = c.comp.id; residue_op = producer; wash_start = at;
        wash_duration = wash }
      :: st.washes;
    c.resident <- None;
    c.ready <- Float.max c.ready (at +. wash)

(* Record the transport of out(parent) to component [dst] arriving exactly
   at [start]; updates the producing component when this is the first
   removal of the fluid. *)
let transport st ~parent ~child ~dst ~start =
  let fs = fluid_exn st parent in
  let depart = start -. st.tc in
  let removal =
    match fs.stored, fs.removed_at with
    | Some entry, _ ->
      (* Fetch from the unit through its exit port. *)
      st.port_out <-
        Interval_set.add (Interval.make depart (depart +. st.tc)) st.port_out;
      fs.stored <- None;
      entry -. st.tc
    | None, Some t ->
      (* A later copy waited in a channel since the fluid left; under the
         unit it travels directly. *)
      if st.storage = `Channels then Float.min t depart else depart
    | None, None ->
      (* First removal: the producing component loses its residue now and
         must be washed before its next use. *)
      fs.removed_at <- Some depart;
      let home = st.comps.(fs.home) in
      let wash = wash_of st parent in
      Telemetry.incr ~cat:"schedule" "washes.departure";
      st.washes <-
        { Types.component = fs.home; residue_op = parent; wash_start = depart;
          wash_duration = wash }
        :: st.washes;
      if home.resident = Some parent then home.resident <- None;
      home.ready <- Float.max home.ready (depart +. wash);
      depart
  in
  (* A transport is recorded when the fluid physically travels: between
     distinct components, or back into its own component after having been
     evicted (a loopback, whose waiting time is channel cache or a storage
     round trip). *)
  if fs.home <> dst || removal < depart -. 1e-9 then begin
    Telemetry.incr ~cat:"schedule" "transports";
    st.transports <-
      { Types.edge = (parent, child); src = fs.home; dst; removal; depart;
        arrive = start; fluid = (Seq_graph.op st.graph parent).output }
      :: st.transports
  end

(* Bind and schedule operation [op] on component state [c]. *)
let schedule_on st op c ~in_place =
  let o = Seq_graph.op st.graph op in
  let parents = Seq_graph.parents st.graph op in
  (* Earliest arrival of out(p) for a start at [start]: a fluid in the unit
     arrives [tc] after the exit port is next free for it. *)
  let arrival p ~start =
    let finish = (times_exn st p).finish in
    if in_place = Some p then finish
    else
      match (fluid_exn st p).stored with
      | Some entry ->
        Interval_set.free_from (Float.max entry (start -. st.tc))
          ~duration:st.tc st.port_out
        +. st.tc
      | None -> finish +. st.tc
  in
  let avail = availability st c ~consumable_parent:in_place in
  (* Clear the component: either its resident is consumed in place or it
     must be evicted before [start].  An eviction into the unit does not
     depend on [start], and a parent displaced into it must come back out
     through the exit port, so in unit mode it happens first. *)
  let clear ~start =
    match c.resident with
    | Some producer when in_place = Some producer -> c.resident <- None
    | Some _ -> evict st c ~start
    | None -> ()
  in
  if st.storage = `Unit then clear ~start:avail;
  (* Only a fetch from the unit depends on the start, so only then iterate
     the start to a fixed point. *)
  let fetches =
    List.exists (fun p -> (fluid_exn st p).stored <> None) parents
  in
  let rec settle start fuel =
    let bound =
      List.fold_left (fun acc p -> Float.max acc (arrival p ~start)) avail
        parents
    in
    let bound = Float.max bound 0. in
    if (not fetches) || bound <= start +. 1e-9 || fuel = 0 then
      Float.max start bound
    else settle bound (fuel - 1)
  in
  let start = settle 0. 16 in
  let finish = start +. o.duration in
  clear ~start;
  (* Consume every parent fluid. *)
  let consume p =
    let fs = fluid_exn st p in
    fs.copies <- fs.copies - 1;
    if in_place = Some p then begin
      fs.removed_at <- Some start
      (* No wash: the residue is incorporated into the new mixture. *)
    end
    else transport st ~parent:p ~child:op ~dst:c.comp.id ~start
  in
  List.iter consume parents;
  (* Execute. *)
  c.ready <- finish;
  let out_degree = List.length (Seq_graph.children st.graph op) in
  let fs =
    { home = c.comp.id; produced_at = finish; copies = out_degree;
      removed_at = None; stored = None }
  in
  st.fluids.(op) <- Some fs;
  if out_degree = 0 then begin
    (* Sink: the product leaves the chip when the operation completes. *)
    fs.removed_at <- Some finish;
    let wash = wash_of st op in
    Telemetry.incr ~cat:"schedule" "washes.sink";
    st.washes <-
      { Types.component = c.comp.id; residue_op = op; wash_start = finish;
        wash_duration = wash }
      :: st.washes;
    c.ready <- finish +. wash
  end
  else c.resident <- Some op;
  st.times.(op) <-
    Some { Types.component = c.comp.id; start; finish; in_place_parent = in_place }

(* Binding rule of the paper's Alg. 1 (Case I / Case II), or the baseline
   earliest-availability rule when [case1] is false. *)
let choose_component st ~case1 op =
  let o = Seq_graph.op st.graph op in
  let parents = Seq_graph.parents st.graph op in
  let qualified =
    Array.to_list st.comps
    |> List.filter (fun c -> Operation.equal_kind c.comp.kind o.kind)
  in
  if qualified = [] then
    invalid_arg
      (Printf.sprintf "Engine.run: no %s allocated for operation %d"
         (Operation.kind_to_string o.kind) op);
  let case1_pick () =
    (* O'_s: qualified components whose resident fluid is a consumable
       parent output; choose the lowest diffusion coefficient. *)
    let candidates =
      List.filter_map
        (fun c ->
          match in_place_candidate st c ~parents with
          | Some producer ->
            let fluid = (Seq_graph.op st.graph producer).output in
            Some (fluid.Fluid.diffusion, c, producer)
          | None -> None)
        qualified
    in
    match
      List.sort
        (fun (d1, c1, _) (d2, c2, _) ->
          let cmp = Float.compare d1 d2 in
          if cmp <> 0 then cmp else compare c1.comp.id c2.comp.id)
        candidates
    with
    | (_, c, producer) :: _ -> Some (c, producer)
    | [] -> None
  in
  let earliest_pick () =
    let scored =
      List.map
        (fun c ->
          let consumable = in_place_candidate st c ~parents in
          (availability st c ~consumable_parent:consumable, c, consumable))
        qualified
    in
    match
      List.sort
        (fun (a1, c1, _) (a2, c2, _) ->
          let cmp = Float.compare a1 a2 in
          if cmp <> 0 then cmp else compare c1.comp.id c2.comp.id)
        scored
    with
    | (_, c, consumable) :: _ -> (c, consumable)
    | [] -> assert false
  in
  if case1 then
    match case1_pick () with
    | Some (c, producer) ->
      (* Case I of Alg. 1: consume a parent's residue in place. *)
      Telemetry.incr ~cat:"schedule" "bindings.case1";
      (c, Some producer)
    | None ->
      (* Case II: no in-place candidate; fall back to availability. *)
      Telemetry.incr ~cat:"schedule" "bindings.case2";
      earliest_pick ()
  else begin
    Telemetry.incr ~cat:"schedule" "bindings.earliest";
    earliest_pick ()
  end

let fresh_state ?(storage = `Channels) ~tc graph allocation =
  if not (Float.is_finite tc) || tc <= 0. then
    invalid_arg "Engine.run: tc must be positive";
  if not (Allocation.covers allocation graph) then
    invalid_arg "Engine.run: allocation does not cover all operation kinds";
  let n = Seq_graph.n_ops graph in
  let comps =
    Array.of_list
      (List.map
         (fun comp -> { comp; ready = 0.; resident = None })
         (Allocation.components allocation))
  in
  { graph; tc; storage; comps;
    fluids = Array.make n None;
    times = Array.make n None;
    port_in = Interval_set.empty; port_out = Interval_set.empty;
    transports = []; washes = [] }

(* Independent deep copy: component and fluid records are mutable. *)
let copy_state st =
  {
    st with
    comps =
      Array.map (fun c -> { c with ready = c.ready }) st.comps;
    fluids =
      Array.map
        (Option.map (fun fs -> { fs with copies = fs.copies }))
        st.fluids;
    times = Array.copy st.times;
  }

let finalize st allocation =
  let times =
    Array.map
      (function
        | Some t -> t
        | None -> invalid_arg "Engine.run: unscheduled operation remains")
      st.times
  in
  let makespan =
    Array.fold_left (fun acc (t : Types.op_times) -> Float.max acc t.finish)
      0. times
  in
  {
    Types.graph = st.graph; allocation;
    components = Array.map (fun c -> c.comp) st.comps;
    times;
    transports =
      List.sort
        (fun (a : Types.transport) b -> Float.compare a.depart b.depart)
        st.transports;
    washes =
      List.sort
        (fun (a : Types.wash_event) b -> Float.compare a.wash_start b.wash_start)
        st.washes;
    makespan;
  }

let run ?priorities ?storage ~case1 ~tc graph allocation =
  let n = Seq_graph.n_ops graph in
  let st = fresh_state ?storage ~tc graph allocation in
  let prio =
    match priorities with
    | None -> Seq_graph.priorities graph ~tc
    | Some p ->
      if Array.length p <> n then
        invalid_arg "Engine.run: priorities length mismatch";
      p
  in
  (* Max-queue on priority; ties broken towards the lower operation id so
     runs are deterministic. *)
  let cmp (p1, i1) (p2, i2) =
    let c = Float.compare p2 p1 in
    if c <> 0 then c else compare i1 i2
  in
  let queue = Mfb_util.Pqueue.create ~cmp in
  let pending = Array.make n 0 in
  List.iter (fun (_, dst) -> pending.(dst) <- pending.(dst) + 1)
    (Seq_graph.edges graph);
  for op = 0 to n - 1 do
    if pending.(op) = 0 then
      Mfb_util.Pqueue.push queue (prio.(op), op) op
  done;
  let rec drain () =
    match Mfb_util.Pqueue.pop queue with
    | None -> ()
    | Some (_, op) ->
      let depth = Mfb_util.Pqueue.length queue in
      Telemetry.sample ~cat:"schedule" "ready_queue"
        (float_of_int (depth + 1));
      Telemetry.observe ~cat:"schedule" "ready_queue.depth"
        (float_of_int (depth + 1));
      let c, in_place = choose_component st ~case1 op in
      schedule_on st op c ~in_place;
      let release child =
        pending.(child) <- pending.(child) - 1;
        if pending.(child) = 0 then
          Mfb_util.Pqueue.push queue (prio.(child), child) child
      in
      List.iter release (Seq_graph.children graph op);
      drain ()
  in
  drain ();
  finalize st allocation

module Search = struct
  type snapshot = { st : state; allocation : Allocation.t }

  let init ~tc graph allocation =
    { st = fresh_state ~tc graph allocation; allocation }

  let scheduled snap op = snap.st.times.(op) <> None

  let ready_ops snap =
    let g = snap.st.graph in
    List.filter
      (fun op ->
        (not (scheduled snap op))
        && List.for_all (scheduled snap) (Seq_graph.parents g op))
      (List.init (Seq_graph.n_ops g) Fun.id)

  let candidates snap op =
    let st = snap.st in
    let o = Seq_graph.op st.graph op in
    let parents = Seq_graph.parents st.graph op in
    Array.to_list st.comps
    |> List.filter (fun c -> Operation.equal_kind c.comp.kind o.kind)
    |> List.map (fun c -> (c.comp.id, in_place_candidate st c ~parents))

  let apply snap op (comp_id, in_place) =
    let st = copy_state snap.st in
    schedule_on st op st.comps.(comp_id) ~in_place;
    { snap with st }

  let complete snap = Array.for_all (( <> ) None) snap.st.times

  let current_makespan snap =
    Array.fold_left
      (fun acc -> function
        | Some (t : Types.op_times) -> Float.max acc t.finish
        | None -> acc)
      0. snap.st.times

  (* Duration-only critical tail of every operation (transport-free, so
     always admissible: in-place chains skip every tc). *)
  let duration_tails g =
    let n = Seq_graph.n_ops g in
    let tail = Array.make n 0. in
    List.iter
      (fun op ->
        let best_child =
          List.fold_left
            (fun acc c -> Float.max acc tail.(c))
            0.
            (Seq_graph.children g op)
        in
        tail.(op) <- (Seq_graph.op g op).duration +. best_child)
      (List.rev (Seq_graph.topo_order g));
    tail

  let tails = duration_tails

  let lower_bound ?tails snap =
    let g = snap.st.graph in
    let tails =
      match tails with Some t -> t | None -> duration_tails g
    in
    let bound_of op =
      match snap.st.times.(op) with
      | Some _ -> 0.
      | None ->
        let earliest_start =
          List.fold_left
            (fun acc p ->
              match snap.st.times.(p) with
              | Some (t : Types.op_times) -> Float.max acc t.finish
              | None -> acc)
            0.
            (Seq_graph.parents g op)
        in
        earliest_start +. tails.(op)
    in
    List.fold_left
      (fun acc op -> Float.max acc (bound_of op))
      (current_makespan snap)
      (List.init (Seq_graph.n_ops g) Fun.id)

  let to_schedule snap = finalize snap.st snap.allocation

  (* Canonical encoding of everything that can still influence *future*
     operation times: per-operation progress (unscheduled / live fluid /
     fully consumed), the finish time and removal state of every live
     fluid, and every component's (ready, resident) pair.  Finish times
     of fully consumed fluids are deliberately excluded — they only feed
     the already-accumulated makespan, which dominance handles as the
     memo value, not the key.  Two snapshots with equal signatures have
     bit-identical futures, so the exact search may prune the one whose
     accumulated makespan is no better ({!Exact}). *)
  let signature snap =
    let st = snap.st in
    let buf = Buffer.create 256 in
    let add_float f = Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float f)) in
    Array.iteri
      (fun op t ->
        match t with
        | None -> Buffer.add_string buf "u;"
        | Some (t : Types.op_times) ->
          (match st.fluids.(op) with
           | Some fs when fs.copies > 0 ->
             (* Live fluid: its production time constrains unscheduled
                children, and whether it has already left its producer
                decides if a future transport washes [home]. *)
             Buffer.add_char buf 's';
             add_float t.finish;
             Buffer.add_char buf (if fs.removed_at = None then 'r' else 'x');
             Buffer.add_string buf (string_of_int fs.home);
             Buffer.add_char buf ';'
           | _ -> Buffer.add_string buf "d;"))
      st.times;
    Array.iter
      (fun c ->
        Buffer.add_char buf 'c';
        add_float c.ready;
        (match c.resident with
         | None -> Buffer.add_char buf '.'
         | Some p -> Buffer.add_string buf (string_of_int p));
        Buffer.add_char buf ';')
      st.comps;
    Buffer.contents buf
end
