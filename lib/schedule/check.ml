module Seq_graph = Mfb_bioassay.Seq_graph
module Operation = Mfb_bioassay.Operation

type violation = { code : string; message : string }

let eps = 1e-9

let validate ~tc (sched : Types.t) =
  let g = sched.graph in
  let violations = ref [] in
  let flag code fmt =
    Printf.ksprintf (fun message ->
        violations := { code; message } :: !violations)
      fmt
  in
  (* Bindings. *)
  Array.iteri
    (fun op (t : Types.op_times) ->
      let o = Seq_graph.op g op in
      let comp = sched.components.(t.component) in
      if not (Mfb_component.Component.qualified comp o) then
        flag "binding" "o%d (%s) bound to %s" op
          (Operation.kind_to_string o.kind)
          (Mfb_component.Component.label comp);
      if t.finish -. t.start +. eps < o.duration then
        flag "binding" "o%d runs %.3f s instead of %.3f s" op
          (t.finish -. t.start) o.duration)
    sched.times;
  (* Dependencies. *)
  List.iter
    (fun (p, o) ->
      let tp = sched.times.(p) and to_ = sched.times.(o) in
      let sep = if to_.in_place_parent = Some p then 0. else tc in
      if to_.start +. eps < tp.finish +. sep then
        flag "dependency" "o%d starts %.3f < o%d finish %.3f + %.3f" o
          to_.start p tp.finish sep)
    (Seq_graph.edges g);
  (* In-place parents must be real parents executed on the same component. *)
  Array.iteri
    (fun op (t : Types.op_times) ->
      match t.in_place_parent with
      | None -> ()
      | Some p ->
        if not (List.mem p (Seq_graph.parents g op)) then
          flag "dependency" "o%d claims in-place parent o%d (not a parent)"
            op p
        else if sched.times.(p).component <> t.component then
          flag "dependency"
            "o%d in-place parent o%d ran on a different component" op p)
    sched.times;
  (* Component exclusivity and wash separation. *)
  Array.iter
    (fun (comp : Mfb_component.Component.t) ->
      let rec walk = function
        | (a, ta) :: (((b, tb) :: _) as rest) ->
          if tb.Types.start +. eps < ta.Types.finish then
            flag "overlap" "o%d and o%d overlap on %s" a b
              (Mfb_component.Component.label comp);
          if tb.Types.in_place_parent <> Some a then begin
            let wash = Operation.wash_time (Seq_graph.op g a) in
            if tb.Types.start +. eps < ta.Types.finish +. wash then
              flag "wash" "o%d starts %.3f < o%d finish %.3f + wash %.3f on %s"
                b tb.Types.start a ta.Types.finish wash
                (Mfb_component.Component.label comp)
          end;
          walk rest
        | [ _ ] | [] -> ()
      in
      walk (Types.ops_on_component sched comp.id))
    sched.components;
  (* Transports. *)
  List.iter
    (fun (tr : Types.transport) ->
      let p, o = tr.edge in
      if tr.removal > tr.depart +. eps then
        flag "transport" "o%d->o%d removal %.3f > depart %.3f" p o tr.removal
          tr.depart;
      if Float.abs (tr.arrive -. tr.depart -. tc) > 1e-6 then
        flag "transport" "o%d->o%d arrive - depart = %.3f <> tc" p o
          (tr.arrive -. tr.depart);
      (* Loopback transports (src = dst) are legal: they model a fluid
         evicted into a channel and pulled back later.  Retiming may shrink
         their channel cache to zero, so no positivity is required. *)
      if sched.times.(p).component <> tr.src then
        flag "transport" "o%d->o%d src %d but producer ran on %d" p o tr.src
          sched.times.(p).component;
      if sched.times.(o).component <> tr.dst then
        flag "transport" "o%d->o%d dst %d but consumer runs on %d" p o tr.dst
          sched.times.(o).component;
      if Float.abs (tr.arrive -. sched.times.(o).start) > 1e-6 then
        flag "transport" "o%d->o%d arrives %.3f but consumer starts %.3f" p o
          tr.arrive sched.times.(o).start;
      if tr.removal +. eps < sched.times.(p).finish then
        flag "transport" "o%d->o%d removal %.3f before producer finish %.3f" p
          o tr.removal sched.times.(p).finish)
    sched.transports;
  (* Makespan. *)
  let max_finish =
    Array.fold_left (fun acc (t : Types.op_times) -> Float.max acc t.finish)
      0. sched.times
  in
  if Float.abs (max_finish -. sched.makespan) > 1e-6 then
    flag "makespan" "makespan %.3f <> max finish %.3f" sched.makespan
      max_finish;
  List.rev !violations
