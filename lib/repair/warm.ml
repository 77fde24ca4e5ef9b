(* Warm-start synthesis from a near-matching cached result.

   The cold flow is schedule -> place -> route, and only placement is
   both expensive and placement-{e in}dependent of the edit: the
   schedule stage is a pure function of (graph, allocation, tc, backend)
   and routing is cheap.  So a warm start re-runs the cold flow's own
   schedule stage ([Flow.schedule]), keeps the cached chip verbatim, and
   re-routes on it — replaying every cached task whose transport the
   edit left intact and sending the invalidated rest through the
   router's delay ladder under the policy repair uses
   ({!Mfb_route.Router.route_one} [First_fit]).

   The quality gate is sound without ever running the cold flow: the
   warm schedule equals the cold pre-routing schedule (same
   deterministic stage), and retiming only ever postpones, so the cold
   result's makespan is >= the pre-routing makespan.  Warm makespan
   <= pre-routing x (1 + delta) therefore implies warm <= cold x
   (1 + delta). *)

module Types = Mfb_schedule.Types
module Check = Mfb_schedule.Check
module Flow = Mfb_core.Flow
module Chip = Mfb_place.Chip
module Routed = Mfb_route.Routed
module Rgrid = Mfb_route.Rgrid
module Router = Mfb_route.Router
module Telemetry = Mfb_util.Telemetry

type report = {
  reused : int;            (* cached tasks replayed verbatim *)
  rerouted : int;          (* ladder repairs within the window *)
  rerouted_delayed : int;  (* ladder repairs that needed extra delay *)
  makespan_lb : float;     (* pre-routing makespan = cold lower bound *)
  makespan : float;        (* warm result makespan *)
}

exception Cold of string

let synthesize ~(config : Mfb_core.Config.t)
    ~(cached : Mfb_core.Result.t) ~delta graph allocation =
  if delta < 0. then invalid_arg "Warm.synthesize: delta < 0";
  let tc = config.tc and we = config.we in
  let started_cpu = Sys.time () in
  try
    Telemetry.span ~cat:"warm" "warm" @@ fun () ->
    (* [jobs = 1]: warm starts already run inside a server pool task,
       and pools never nest. *)
    let sched, decision =
      Flow.schedule ~config ~jobs:1 `Ours graph allocation
    in
    (* The cached placement can only seed this schedule when both talk
       about the same component array (ids, kinds, dimensions). *)
    if sched.Types.components <> cached.chip.Chip.components then
      raise (Cold "component set differs from the cached placement");
    if
      List.exists
        (fun (t : Routed.task) -> t.kind <> Routed.Transport)
        cached.routing.tasks
    then raise (Cold "cached result has io-routed tasks");
    let chip = Chip.copy cached.chip in
    let grid = Rgrid.create ~we chip in
    (* Cached tasks are consumed at most once each, matched by the full
       transport record — window, endpoints and fluid included — so a
       replay is only attempted when the edit left the transport
       byte-identical. *)
    let remaining = ref cached.routing.tasks in
    let take tr =
      let rec go acc = function
        | [] -> None
        | (t : Routed.task) :: rest ->
          if t.transport = tr then begin
            remaining := List.rev_append acc rest;
            Some t
          end
          else go (t :: acc) rest
      in
      go [] !remaining
    in
    let replayable (t : Routed.task) =
      List.for_all
        (fun (cell, iv) ->
          Rgrid.conflict_free grid cell iv t.transport.Types.fluid)
        (Routed.occupancy ~tc t)
    in
    let reroute tr (inw, dly) =
      match Router.route_one ~policy:Router.First_fit grid ~tc tr with
      | Router.In_window t -> (t, (inw + 1, dly))
      | Delayed t -> (t, (inw, dly + 1))
      | Unresolved _ | Unroutable ->
        raise
          (Cold
             (Printf.sprintf "transport (%d,%d) unroutable on cached chip"
                (fst tr.Types.edge) (snd tr.Types.edge)))
    in
    (* Commit in the cold router's order so a distance-0 replay
       reproduces the cached grid evolution — and therefore the cached
       wash measures and summary — byte for byte. *)
    let rev_tasks, reused, (rerouted, rerouted_delayed) =
      List.fold_left
        (fun (acc, reused, ladder) (tr : Types.transport) ->
          match take tr with
          | Some (t0 : Routed.task) when replayable t0 ->
            let t =
              Routed.commit_path grid ~tc t0.kind t0.transport ~path:t0.path
                ~delay:t0.delay
            in
            (t :: acc, reused + 1, ladder)
          | Some _ | None ->
            let t, ladder = reroute tr ladder in
            (t :: acc, reused, ladder))
        ([], 0, (0, 0)) (Routed.start_order sched)
    in
    let routing = Routed.finalize grid rev_tasks ~unresolved:0 in
    (* Postponements feed back into the schedule through the cold
       flow's own stage. *)
    let final_sched =
      Flow.retime sched (List.map (fun t -> (t, 0.)) routing.tasks)
    in
    (* Proof obligations: the warm result must be legal, and within the
       quality delta of what the cold flow could have produced. *)
    (match Check.validate ~tc final_sched with
     | [] -> ()
     | v :: _ ->
       raise (Cold ("warm schedule fails validation: " ^ v.Check.message)));
    let makespan_lb = sched.Types.makespan in
    if final_sched.Types.makespan > makespan_lb *. (1. +. delta) then
      raise
        (Cold
           (Printf.sprintf
              "quality delta exceeded: warm makespan %.3f > %.3f x %.3f"
              final_sched.Types.makespan makespan_lb (1. +. delta)));
    let result =
      Mfb_core.Result.of_stages
        ~benchmark:(Mfb_bioassay.Seq_graph.name graph)
        ~flow:cached.Mfb_core.Result.flow
        ~cpu_time:(Sys.time () -. started_cpu)
        ?decision ~schedule:final_sched ~chip ~routing ()
    in
    let report =
      {
        reused;
        rerouted;
        rerouted_delayed;
        makespan_lb;
        makespan = final_sched.Types.makespan;
      }
    in
    if reused > 0 then Telemetry.incr ~cat:"warm" ~by:reused "reused";
    if rerouted + rerouted_delayed > 0 then
      Telemetry.incr ~cat:"warm" ~by:(rerouted + rerouted_delayed) "rerouted";
    Ok (result, report)
  with Cold reason ->
    Telemetry.incr ~cat:"warm" "fallbacks";
    Error reason
