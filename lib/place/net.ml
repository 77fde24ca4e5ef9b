module Types = Mfb_schedule.Types
module Metrics = Mfb_schedule.Metrics

type task = {
  transport : Types.transport;
  concurrency : int;
  wash_time : float;
}

type t = { a : int; b : int; tasks : task list }

let of_schedule (sched : Types.t) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (tr : Types.transport) ->
      let key = (min tr.src tr.dst, max tr.src tr.dst) in
      let task =
        { transport = tr;
          concurrency = Metrics.concurrency sched tr;
          wash_time = Mfb_bioassay.Fluid.wash_time tr.fluid }
      in
      let existing = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
      Hashtbl.replace tbl key (task :: existing))
    sched.transports;
  Hashtbl.fold
    (fun (a, b) tasks acc ->
      let tasks =
        List.sort
          (fun t1 t2 ->
            Float.compare t1.transport.Types.depart t2.transport.Types.depart)
          tasks
      in
      { a; b; tasks } :: acc)
    tbl []
  |> List.sort (fun n1 n2 -> compare (n1.a, n1.b) (n2.a, n2.b))

let connection_priority ~beta ~gamma net =
  List.fold_left
    (fun acc task ->
      acc +. (beta *. float_of_int task.concurrency) +. (gamma *. task.wash_time))
    0. net.tasks
