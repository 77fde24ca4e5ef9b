(* Tests for the binding-and-scheduling engine (paper Alg. 1), metrics,
   retiming, and the legality checker. *)

module Seq_graph = Mfb_bioassay.Seq_graph
module Operation = Mfb_bioassay.Operation
module Fluid = Mfb_bioassay.Fluid
module Allocation = Mfb_component.Allocation
module Types = Mfb_schedule.Types
module Dcsa = Mfb_schedule.Dcsa_scheduler
module Metrics = Mfb_schedule.Metrics
module Retime = Mfb_schedule.Retime
module Check = Mfb_schedule.Check

(* BA's binding rule: earliest-ready, no Case-I preference. *)
module Baseline = struct
  let schedule ~tc g alloc = Mfb_schedule.Engine.run ~case1:false ~tc g alloc
end

let tc = 2.0

let qtest ?(count = 60) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let check_legal name sched =
  let violations = Check.validate ~tc sched in
  if violations <> [] then
    Alcotest.failf "%s: %d violations, first: %a" name
      (List.length violations) Check.pp_violation (List.hd violations)

(* Easy-to-wash vs hard-to-wash fluids for hand-built scenarios. *)
let easy = Fluid.make ~name:"easy" ~diffusion:1e-5 (* wash 0.2 s *)
let hard = Fluid.make ~name:"hard" ~diffusion:1e-8 (* wash ~7.9 s *)

let mix ~id ?(duration = 5.) output =
  Operation.make ~id ~kind:Mix ~duration ~output

(* --- Legality of both schedulers on the whole Table-I suite --- *)

let legality_tests =
  List.concat_map
    (fun (g, alloc) ->
      let name = Seq_graph.name g in
      [
        Alcotest.test_case (name ^ " dcsa legal") `Quick (fun () ->
            check_legal name (Dcsa.schedule ~tc g alloc));
        Alcotest.test_case (name ^ " baseline legal") `Quick (fun () ->
            check_legal name (Baseline.schedule ~tc g alloc));
      ])
    (Testkit.suite_instances ())

(* --- DCSA vs baseline shape on the suite --- *)

let test_dcsa_never_slower () =
  List.iter
    (fun (g, alloc) ->
      let ours = Dcsa.schedule ~tc g alloc in
      let ba = Baseline.schedule ~tc g alloc in
      Alcotest.(check bool)
        (Seq_graph.name g ^ " makespan ours <= ba")
        true
        (ours.Types.makespan <= ba.Types.makespan +. 1e-6))
    (Testkit.suite_instances ())

let test_dcsa_in_place_on_chains () =
  let g = Mfb_bioassay.Benchmarks.pcr () in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  Alcotest.(check bool) "case-I fires on the PCR tree" true
    (Metrics.in_place_count sched > 0)

(* --- Case-I strategy (paper Fig. 5) --- *)

(* o0, o1 mixes feeding o2 (a mix): case-I binds o2 onto the parent whose
   output has the LOWEST diffusion coefficient (hardest wash avoided). *)
let case1_graph () =
  Seq_graph.create ~name:"case1"
    ~ops:[ mix ~id:0 hard; mix ~id:1 easy; mix ~id:2 easy ]
    ~edges:[ (0, 2); (1, 2) ]

let test_case1_prefers_hard_wash_parent () =
  let g = case1_graph () in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  check_legal "case1" sched;
  Alcotest.(check (option int)) "o2 consumes o0 in place" (Some 0)
    sched.times.(2).in_place_parent;
  Alcotest.(check int) "o2 on o0's component"
    sched.times.(0).component sched.times.(2).component;
  (* No wash event for the hard residue: it was consumed in place. *)
  Alcotest.(check bool) "no wash of o0's residue" true
    (List.for_all
       (fun (w : Types.wash_event) -> w.residue_op <> 0)
       sched.washes)

let test_case1_eliminates_transport () =
  let g = case1_graph () in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  (* Only the o1 -> o2 edge needs a transport. *)
  Alcotest.(check int) "one transport" 1 (Metrics.transport_count sched);
  match sched.transports with
  | [ tr ] -> Alcotest.(check (pair int int)) "edge" (1, 2) tr.edge
  | other ->
    Alcotest.failf "expected exactly one transport, got %d"
      (List.length other)

(* --- Case-II strategy (paper Fig. 6): earliest ready component --- *)

let test_case2_earliest_ready () =
  (* Two serial chains on 2 mixers; a third op with no same-kind resident
     parent picks the earliest-ready mixer. *)
  let g =
    Seq_graph.create ~name:"case2"
      ~ops:
        [
          mix ~id:0 ~duration:3. easy;
          mix ~id:1 ~duration:9. easy;
          Operation.make ~id:2 ~kind:Heat ~duration:2. ~output:easy;
          mix ~id:3 ~duration:2. easy;
        ]
      ~edges:[ (0, 2); (2, 3) ]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (2, 1, 0, 0)) in
  check_legal "case2" sched;
  (* o3's parents give no same-kind resident (heater output), so it binds
     to the earliest-ready mixer: mixer 0 frees at 3 + wash, mixer 1 at
     9 + wash. *)
  Alcotest.(check int) "o3 on the early mixer" sched.times.(0).component
    sched.times.(3).component

(* --- Eviction and channel caching --- *)

let test_eviction_creates_cache () =
  (* One mixer: o0 produces for o2, but o1 must run on the same mixer
     first, evicting o0's output into a channel. *)
  let g =
    Seq_graph.create ~name:"evict"
      ~ops:
        [
          mix ~id:0 ~duration:5. hard;
          mix ~id:1 ~duration:5. easy;
          mix ~id:2 ~duration:5. easy;
        ]
      ~edges:[ (0, 2); (1, 2) ]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  check_legal "evict" sched;
  Alcotest.(check bool) "channel cache incurred" true
    (Metrics.total_channel_cache_time sched > 0.);
  (* The evicted fluid's wash must appear. *)
  Alcotest.(check bool) "wash of o0 residue" true
    (List.exists (fun (w : Types.wash_event) -> w.residue_op = 0)
       sched.washes)

let test_single_component_serializes () =
  let g =
    Seq_graph.create ~name:"serial"
      ~ops:[ mix ~id:0 easy; mix ~id:1 easy; mix ~id:2 easy ]
      ~edges:[]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  check_legal "serial" sched;
  (* Three 5-second mixes with two intervening washes. *)
  Alcotest.(check bool) "makespan >= 15" true (sched.makespan >= 15.)

(* --- Fluid fan-out (one output, several consumers) --- *)

let test_fanout_copies () =
  (* o0's output feeds o1, o2, and o3 on separate mixers. *)
  let g =
    Seq_graph.create ~name:"fanout"
      ~ops:[ mix ~id:0 hard; mix ~id:1 easy; mix ~id:2 easy; mix ~id:3 easy ]
      ~edges:[ (0, 1); (0, 2); (0, 3) ]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (4, 0, 0, 0)) in
  check_legal "fanout" sched;
  (* All three consumers get the fluid; with copies > 1 nobody may consume
     in place. *)
  Alcotest.(check int) "three transports" 3 (Metrics.transport_count sched);
  Alcotest.(check int) "no in-place with fan-out" 0
    (Metrics.in_place_count sched);
  (* Only one wash of o0's residue: the copies leave together. *)
  Alcotest.(check int) "single wash of o0" 1
    (List.length
       (List.filter (fun (w : Types.wash_event) -> w.residue_op = 0)
          sched.washes))

let test_loopback_cache_accounted () =
  (* One mixer: o0 feeds o2, but o1 must run in between; o0's output is
     evicted into a channel and later pulled back into the same mixer. *)
  let g =
    Seq_graph.create ~name:"loopback"
      ~ops:[ mix ~id:0 hard; mix ~id:1 easy; mix ~id:2 easy ]
      ~edges:[ (0, 2); (1, 2) ]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  check_legal "loopback" sched;
  let loopbacks =
    List.filter (fun (tr : Types.transport) -> tr.src = tr.dst)
      sched.transports
  in
  Alcotest.(check bool) "loopback transport recorded" true (loopbacks <> []);
  List.iter
    (fun tr ->
      Alcotest.(check bool) "loopback carries cache" true
        (Types.transport_cache_time tr > 0.))
    loopbacks

let test_deep_chain_in_place_throughout () =
  (* A 12-op same-kind chain on one mixer: every step consumes its parent
     in place, so there are no transports and no washes at all until the
     final product leaves. *)
  let g =
    Seq_graph.create ~name:"deep-chain"
      ~ops:(List.init 12 (fun id -> mix ~id easy))
      ~edges:(List.init 11 (fun i -> (i, i + 1)))
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  check_legal "deep chain" sched;
  Alcotest.(check int) "no transports" 0 (Metrics.transport_count sched);
  Alcotest.(check int) "all in place" 11 (Metrics.in_place_count sched);
  Alcotest.(check (float 1e-9)) "makespan is pure compute" 60. sched.makespan

let test_wide_independent_layer () =
  (* 12 independent mixes on 3 mixers: perfect 4-wave packing modulo
     washes. *)
  let g =
    Seq_graph.create ~name:"wide"
      ~ops:(List.init 12 (fun id -> mix ~id easy))
      ~edges:[]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  check_legal "wide" sched;
  Alcotest.(check bool) "at least four waves" true (sched.makespan >= 20.);
  Alcotest.(check bool) "washes between waves only" true
    (sched.makespan <= 20. +. (3. *. 0.2) +. 1e-6)

(* --- Input validation --- *)

let test_engine_validation () =
  let g = case1_graph () in
  Alcotest.check_raises "tc <= 0"
    (Invalid_argument "Engine.run: tc must be positive") (fun () ->
      ignore (Dcsa.schedule ~tc:0. g (Allocation.of_vector (1, 0, 0, 0))));
  Alcotest.check_raises "uncovered kind"
    (Invalid_argument "Engine.run: allocation does not cover all operation kinds")
    (fun () ->
      ignore (Dcsa.schedule ~tc g (Allocation.of_vector (0, 1, 0, 0))))

(* --- Metrics --- *)

let test_utilization_range () =
  List.iter
    (fun (g, alloc) ->
      let u = Metrics.resource_utilization (Dcsa.schedule ~tc g alloc) in
      Alcotest.(check bool)
        (Seq_graph.name g ^ " utilization in [0,1]")
        true
        (0. <= u && u <= 1. +. 1e-9))
    (Testkit.suite_instances ())

let test_utilization_known_value () =
  (* One mixer running one 5 s op back to back with another 5 s op after a
     0.2 s wash: Ta = 10, window = 10.2 -> utilization = 10 / 10.2. *)
  let g =
    Seq_graph.create ~name:"u"
      ~ops:[ mix ~id:0 easy; mix ~id:1 easy ]
      ~edges:[]
  in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  Alcotest.(check (float 1e-6)) "utilization" (10. /. 10.2)
    (Metrics.resource_utilization sched)

let test_busy_time () =
  let g = case1_graph () in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  let total =
    List.fold_left
      (fun acc c -> acc +. Metrics.busy_time sched c.Mfb_component.Component.id)
      0.
      (Array.to_list sched.components)
  in
  Alcotest.(check (float 1e-9)) "total busy = sum of durations" 15. total

let test_transport_invariants () =
  List.iter
    (fun (g, alloc) ->
      let sched = Dcsa.schedule ~tc g alloc in
      List.iter
        (fun (tr : Types.transport) ->
          Alcotest.(check (float 1e-9))
            (Seq_graph.name g ^ " transport takes tc")
            tc (tr.arrive -. tr.depart);
          Alcotest.(check bool) "removal <= depart" true
            (tr.removal <= tr.depart +. 1e-9);
          Alcotest.(check bool) "cache >= 0" true
            (Types.transport_cache_time tr >= -1e-9))
        sched.transports)
    (Testkit.suite_instances ())

let test_concurrency_counts () =
  let g, alloc = List.nth (Testkit.suite_instances ()) 2 (* CPA *) in
  let sched = Dcsa.schedule ~tc g alloc in
  List.iter
    (fun tr ->
      let n = Metrics.concurrency sched tr in
      Alcotest.(check bool) "bounded" true
        (0 <= n && n < Metrics.transport_count sched))
    sched.transports

(* --- Property tests over random synthetic assays --- *)

let synthetic_instance_gen =
  QCheck2.Gen.(
    map2
      (fun n seed ->
        let g =
          Mfb_bioassay.Synthetic.generate ~name:"prop"
            { Mfb_bioassay.Synthetic.default_params with
              n_ops = n + 4;
              kind_weights = [| 3; 2; 1; 1 |];
              seed }
        in
        let alloc =
          Allocation.make ~mixers:(2 + (seed land 1)) ~heaters:2 ~filters:1
            ~detectors:1
        in
        (g, alloc))
      (int_bound 30) (int_bound 1000))

let prop_dcsa_legal =
  qtest "dcsa schedule is always legal" synthetic_instance_gen
    (fun (g, alloc) -> Check.is_legal ~tc (Dcsa.schedule ~tc g alloc))

let prop_baseline_legal =
  qtest "baseline schedule is always legal" synthetic_instance_gen
    (fun (g, alloc) -> Check.is_legal ~tc (Baseline.schedule ~tc g alloc))

let prop_makespan_lower_bound =
  qtest "makespan >= duration-only critical path" synthetic_instance_gen
    (fun (g, alloc) ->
      (* In-place chaining can skip every transport, so the only universal
         lower bound is the longest duration path (tc = 0 priorities are
         not expressible; use a tiny tc and subtract its contribution). *)
      let sched = Dcsa.schedule ~tc g alloc in
      let prio = Seq_graph.priorities g ~tc:1e-9 in
      let bound = Array.fold_left Float.max 0. prio -. 1e-3 in
      sched.makespan >= bound)

let prop_all_ops_scheduled =
  qtest "every operation gets exactly one time slot" synthetic_instance_gen
    (fun (g, alloc) ->
      let sched = Dcsa.schedule ~tc g alloc in
      Array.length sched.times = Seq_graph.n_ops g
      && Array.for_all
           (fun (t : Types.op_times) -> t.finish > t.start)
           sched.times)

(* --- Retime --- *)

let test_retime_zero_delays_identity () =
  let g, alloc = List.nth (Testkit.suite_instances ()) 2 in
  let sched = Dcsa.schedule ~tc g alloc in
  let retimed = Retime.with_transport_delays sched ~delays:[] in
  Array.iteri
    (fun op (t : Types.op_times) ->
      Alcotest.(check (float 1e-9)) "start unchanged" t.start
        retimed.times.(op).start)
    sched.times;
  Alcotest.(check (float 1e-9)) "makespan unchanged" sched.makespan
    retimed.makespan

let test_retime_negative_delay_rejected () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Dcsa.schedule ~tc g alloc in
  Alcotest.check_raises "negative"
    (Invalid_argument "Retime.with_transport_delays: negative delay")
    (fun () ->
      ignore (Retime.with_transport_delays sched ~delays:[ ((0, 1), -1.) ]))

let test_retime_pushes_consumer () =
  let g = case1_graph () in
  let sched = Dcsa.schedule ~tc g (Allocation.of_vector (3, 0, 0, 0)) in
  let delayed = Retime.with_transport_delays sched ~delays:[ ((1, 2), 3.) ] in
  Alcotest.(check bool) "consumer pushed" true
    (delayed.times.(2).start >= sched.times.(2).start +. 3. -. 1e-9);
  check_legal "retimed" delayed

let delays_gen sched =
  let edges =
    List.map (fun (tr : Types.transport) -> tr.edge) sched.Types.transports
  in
  QCheck2.Gen.(
    list_size
      (int_bound (max 1 (List.length edges)))
      (pair (oneofl ((-1, -1) :: edges)) (float_bound_inclusive 10.)))

let prop_retime_monotone =
  qtest ~count:40 "retiming never moves operations earlier"
    QCheck2.Gen.(
      synthetic_instance_gen >>= fun (g, alloc) ->
      let sched = Dcsa.schedule ~tc g alloc in
      map (fun delays -> (sched, delays)) (delays_gen sched))
    (fun (sched, delays) ->
      let delays = List.filter (fun ((a, _), _) -> a >= 0) delays in
      let retimed = Retime.with_transport_delays sched ~delays in
      let ok = ref true in
      Array.iteri
        (fun op (t : Types.op_times) ->
          if retimed.times.(op).start < t.start -. 1e-9 then ok := false)
        sched.times;
      !ok && retimed.makespan >= sched.makespan -. 1e-9)

let prop_retime_legal =
  qtest ~count:40 "retimed schedules stay legal"
    QCheck2.Gen.(
      synthetic_instance_gen >>= fun (g, alloc) ->
      let sched = Dcsa.schedule ~tc g alloc in
      map (fun delays -> (sched, delays)) (delays_gen sched))
    (fun (sched, delays) ->
      let delays = List.filter (fun ((a, _), _) -> a >= 0) delays in
      Check.is_legal ~tc (Retime.with_transport_delays sched ~delays))

(* --- Dedicated-storage architecture (paper Fig. 1(a) motivation) --- *)

module Dedicated = Mfb_schedule.Dedicated_scheduler

let test_dedicated_legal_on_suite () =
  List.iter
    (fun (g, alloc) ->
      let result = Dedicated.schedule ~tc ~capacity:4 g alloc in
      check_legal (Seq_graph.name g ^ " dedicated") result.schedule)
    (Testkit.suite_instances ())

let test_dedicated_never_faster_than_dcsa () =
  (* The whole point of DCSA: removing the storage bottleneck can only
     help.  The dedicated round trip costs at least one extra tc whenever
     a fluid is displaced. *)
  List.iter
    (fun (g, alloc) ->
      let dcsa = Dcsa.schedule ~tc g alloc in
      let dedicated = Dedicated.schedule ~tc ~capacity:4 g alloc in
      Alcotest.(check bool)
        (Seq_graph.name g ^ " dedicated >= dcsa")
        true
        (dedicated.schedule.makespan >= dcsa.makespan -. 1e-6))
    (Testkit.suite_instances ())

let test_dedicated_counts_trips () =
  let g, alloc = List.nth (Testkit.suite_instances ()) 2 (* CPA *) in
  let result = Dedicated.schedule ~tc ~capacity:4 g alloc in
  Alcotest.(check bool) "storage used on CPA" true (result.storage_trips > 0);
  Alcotest.(check bool) "residence non-negative" true
    (result.storage_residence >= 0.);
  Alcotest.(check bool) "peak within capacity + overflow slack" true
    (result.peak_occupancy <= 4 + result.capacity_overflows)

let test_dedicated_capacity_one_serializes () =
  (* Several fluids wanting storage with one cell: the schedule must still
     be legal, with trips serialized through the single cell. *)
  let g =
    Seq_graph.create ~name:"tight-storage"
      ~ops:
        [
          mix ~id:0 hard; mix ~id:1 easy; mix ~id:2 easy; mix ~id:3 easy;
          mix ~id:4 easy;
        ]
      ~edges:[ (0, 4); (1, 4); (2, 4); (3, 4) ]
  in
  let result =
    Dedicated.schedule ~tc ~capacity:1 g (Allocation.of_vector (2, 0, 0, 0))
  in
  check_legal "tight storage" result.schedule

let test_dedicated_validation () =
  let g = case1_graph () in
  Alcotest.check_raises "capacity"
    (Invalid_argument "Dedicated_scheduler.schedule: capacity < 1") (fun () ->
      ignore
        (Dedicated.schedule ~tc ~capacity:0 g (Allocation.of_vector (1, 0, 0, 0))));
  Alcotest.check_raises "tc"
    (Invalid_argument "Dedicated_scheduler.schedule: tc must be positive")
    (fun () ->
      ignore
        (Dedicated.schedule ~tc:0. ~capacity:4 g
           (Allocation.of_vector (1, 0, 0, 0))))

let prop_dedicated_legal =
  qtest ~count:40 "dedicated schedules are legal" synthetic_instance_gen
    (fun (g, alloc) ->
      Check.is_legal ~tc (Dedicated.schedule ~tc ~capacity:4 g alloc).schedule)

(* --- Exact branch-and-bound reference --- *)

module Exact = Mfb_schedule.Exact
module Search = Mfb_schedule.Engine.Search

let small_instances () =
  [
    ("pcr", Mfb_bioassay.Benchmarks.pcr (), Allocation.of_vector (3, 0, 0, 0));
    ("case1", case1_graph (), Allocation.of_vector (2, 0, 0, 0));
    ( "synthetic-7",
      Mfb_bioassay.Synthetic.generate ~name:"tiny"
        { Mfb_bioassay.Synthetic.default_params with n_ops = 7; seed = 9 },
      Allocation.of_vector (2, 2, 1, 1) );
  ]

let test_exact_never_worse_than_heuristic () =
  List.iter
    (fun (name, g, alloc) ->
      let heuristic = Dcsa.schedule ~tc g alloc in
      let exact = Exact.schedule ~tc g alloc in
      Alcotest.(check bool) (name ^ " exact <= heuristic") true
        (exact.schedule.makespan <= heuristic.makespan +. 1e-9))
    (small_instances ())

let test_exact_schedules_legal () =
  List.iter
    (fun (name, g, alloc) ->
      let exact = Exact.schedule ~tc g alloc in
      check_legal (name ^ " exact") exact.schedule;
      Alcotest.(check bool) (name ^ " exhausts tiny spaces") true
        exact.optimal)
    (small_instances ())

let test_exact_node_limit () =
  let g = Mfb_bioassay.Benchmarks.fig2_example () in
  let alloc = Allocation.of_vector (3, 1, 0, 1) in
  let bounded = Exact.schedule ~fuel:50 ~tc g alloc in
  Alcotest.(check bool) "fuel exhaustion marks non-optimal" false
    bounded.optimal;
  Alcotest.(check bool) "and sets the truncated flag" true bounded.truncated;
  Alcotest.(check int) "explored stops at the budget" 50 bounded.explored;
  Alcotest.(check bool) "still returns the heuristic incumbent" true
    (bounded.schedule.makespan
    <= (Dcsa.schedule ~tc g alloc).makespan +. 1e-9)

let test_search_api () =
  let g = case1_graph () in
  let alloc = Allocation.of_vector (2, 0, 0, 0) in
  let snap = Search.init ~tc g alloc in
  Alcotest.(check (list int)) "sources ready first" [ 0; 1 ]
    (List.sort compare (Search.ready_ops snap));
  Alcotest.(check bool) "not complete" false (Search.complete snap);
  let candidates = Search.candidates snap 0 in
  Alcotest.(check int) "two qualified mixers" 2 (List.length candidates);
  let snap' = Search.apply snap 0 (List.hd candidates) in
  (* Purity: the original snapshot is untouched. *)
  Alcotest.(check (list int)) "original unchanged" [ 0; 1 ]
    (List.sort compare (Search.ready_ops snap));
  Alcotest.(check (list int)) "child not ready yet" [ 1 ]
    (Search.ready_ops snap');
  Alcotest.(check bool) "lower bound admissible" true
    (Search.lower_bound snap
    <= (Exact.schedule ~tc g alloc).schedule.makespan +. 1e-9)

let prop_exact_bounds_heuristic =
  qtest ~count:15 "exact never exceeds the heuristic on small assays"
    QCheck2.Gen.(
      map
        (fun seed ->
          ( Mfb_bioassay.Synthetic.generate ~name:"x"
              { Mfb_bioassay.Synthetic.default_params with n_ops = 6; seed },
            Allocation.make ~mixers:2 ~heaters:1 ~filters:1 ~detectors:1 ))
        (int_bound 500))
    (fun (g, alloc) ->
      let exact = Exact.schedule ~fuel:50_000 ~tc g alloc in
      let heuristic = Dcsa.schedule ~tc g alloc in
      Check.is_legal ~tc exact.schedule
      && exact.schedule.makespan <= heuristic.makespan +. 1e-9)

(* Satellite oracle property: on seeded synthetic assays of up to 12
   operations the exact result is legal and never worse than the
   heuristic, whether or not the fuel budget sufficed. *)
let prop_exact_oracle_up_to_12_ops =
  qtest ~count:15 "exact <= heuristic and legal on assays up to 12 ops"
    QCheck2.Gen.(
      map2
        (fun n seed ->
          ( Mfb_bioassay.Synthetic.generate ~name:"oracle"
              { Mfb_bioassay.Synthetic.default_params with
                n_ops = 2 + n;
                kind_weights = [| 3; 2; 1; 1 |];
                seed },
            Allocation.make ~mixers:2 ~heaters:2 ~filters:1 ~detectors:1 ))
        (int_bound 10) (int_bound 1000))
    (fun (g, alloc) ->
      let exact = Exact.schedule ~fuel:30_000 ~tc g alloc in
      let heuristic = Dcsa.schedule ~tc g alloc in
      Check.validate ~tc exact.schedule = []
      && exact.schedule.makespan <= heuristic.makespan +. 1e-9
      && exact.heuristic_makespan = heuristic.makespan
      && exact.optimal <> exact.truncated)

(* --- Branch-and-bound edge cases --- *)

let test_exact_empty_assay () =
  (* An empty assay is rejected at graph construction, so the exact
     backend can never see one; what it must share with {!Engine.run} is
     the validation boundary for the degenerate inputs that do parse. *)
  Alcotest.check_raises "empty assay unconstructible"
    (Invalid_argument "Seq_graph.create: no operations") (fun () ->
      ignore (Seq_graph.create ~name:"empty" ~ops:[] ~edges:[]));
  let g =
    Seq_graph.create ~name:"one" ~ops:[ mix ~id:0 easy ] ~edges:[]
  in
  Alcotest.check_raises "uncovered kind rejected like Engine.run"
    (Invalid_argument "Engine.run: allocation does not cover all operation \
                       kinds") (fun () ->
      ignore (Exact.schedule ~tc g (Allocation.of_vector (0, 1, 0, 0))));
  Alcotest.check_raises "non-positive tc rejected like Engine.run"
    (Invalid_argument "Engine.run: tc must be positive") (fun () ->
      ignore (Exact.schedule ~tc:0. g (Allocation.of_vector (1, 0, 0, 0))))

let test_exact_single_op () =
  let g =
    Seq_graph.create ~name:"single"
      ~ops:[ mix ~id:0 ~duration:4. easy ]
      ~edges:[]
  in
  let e = Exact.schedule ~tc g (Allocation.of_vector (1, 0, 0, 0)) in
  Alcotest.(check (float 1e-9)) "makespan = duration" 4. e.schedule.makespan;
  Alcotest.(check bool) "optimal" true e.optimal;
  check_legal "single op" e.schedule

let test_exact_independent_ops_bound_tight () =
  (* Three independent operations on three mixers: the critical-path
     bound at the root already equals the heuristic makespan, so the
     root is pruned without expanding a single child. *)
  let g =
    Seq_graph.create ~name:"independent"
      ~ops:
        [
          mix ~id:0 ~duration:3. easy;
          mix ~id:1 ~duration:4. easy;
          mix ~id:2 ~duration:5. easy;
        ]
      ~edges:[]
  in
  let alloc = Allocation.of_vector (3, 0, 0, 0) in
  let e = Exact.schedule ~tc g alloc in
  Alcotest.(check (float 1e-9)) "makespan = longest duration" 5.
    e.schedule.makespan;
  Alcotest.(check bool) "optimal" true e.optimal;
  Alcotest.(check int) "bound tight at the root" 1 e.explored;
  let snap = Search.init ~tc g alloc in
  Alcotest.(check (float 1e-9)) "root lower bound is exact" 5.
    (Search.lower_bound snap)

let test_exact_fuel_exhaustion_keeps_incumbent () =
  let g = Mfb_bioassay.Benchmarks.fig2_example () in
  let alloc = Allocation.of_vector (3, 1, 0, 1) in
  let heuristic = Dcsa.schedule ~tc g alloc in
  let e = Exact.schedule ~fuel:1 ~tc g alloc in
  Alcotest.(check bool) "truncated" true e.truncated;
  Alcotest.(check bool) "not optimal" false e.optimal;
  Alcotest.(check (float 1e-9)) "incumbent is the heuristic seed"
    heuristic.makespan e.schedule.makespan;
  check_legal "fuel-starved incumbent" e.schedule;
  Alcotest.check_raises "fuel < 1 rejected"
    (Invalid_argument "Exact.schedule: fuel < 1") (fun () ->
      ignore (Exact.schedule ~fuel:0 ~tc g alloc))

(* --- Portfolio runner --- *)

module Portfolio = Mfb_schedule.Portfolio
module Export = Mfb_schedule.Export

let portfolio_instances () =
  small_instances ()
  @ [
      ( "fig2",
        Mfb_bioassay.Benchmarks.fig2_example (),
        Allocation.of_vector (3, 1, 0, 1) );
    ]

let test_portfolio_bit_identical_to_selected () =
  List.iter
    (fun (name, g, alloc) ->
      List.iter
        (fun fuel ->
          let sched, d = Portfolio.race ~fuel ~tc g alloc in
          let reference =
            match d.selected with
            | Portfolio.Heuristic_arm -> Dcsa.schedule ~tc g alloc
            | Portfolio.Exact_arm ->
              (Exact.schedule ~fuel ~tc g alloc).Exact.schedule
          in
          Alcotest.(check string)
            (Printf.sprintf "%s fuel=%d matches %s arm byte for byte" name
               fuel
               (Portfolio.arm_to_string d.selected))
            (Export.to_string reference)
            (Export.to_string sched);
          Alcotest.(check (float 0.)) (name ^ " decision echoes makespan")
            sched.Types.makespan d.makespan)
        [ 1; 100; 50_000 ])
    (portfolio_instances ())

let test_portfolio_deterministic_across_jobs () =
  List.iter
    (fun (name, g, alloc) ->
      let key jobs =
        let sched, d = Portfolio.race ~fuel:5_000 ~jobs ~tc g alloc in
        (Export.to_string sched, d)
      in
      let s1, d1 = key 1 in
      let s1', d1' = key 1 in
      let s2, d2 = key 2 in
      Alcotest.(check string) (name ^ " rerun is byte-identical") s1 s1';
      Alcotest.(check bool) (name ^ " rerun same decision") true (d1 = d1');
      Alcotest.(check string) (name ^ " jobs=2 == jobs=1") s1 s2;
      Alcotest.(check bool) (name ^ " jobs=2 same decision") true (d1 = d2))
    (portfolio_instances ())

let test_portfolio_never_worse_than_either_arm () =
  List.iter
    (fun (name, g, alloc) ->
      let sched, d = Portfolio.race ~fuel:20_000 ~tc g alloc in
      let heuristic = Dcsa.schedule ~tc g alloc in
      Alcotest.(check bool) (name ^ " <= heuristic") true
        (sched.Types.makespan <= heuristic.makespan +. 1e-9);
      Alcotest.(check (float 0.)) (name ^ " heuristic makespan recorded")
        heuristic.makespan d.heuristic_makespan;
      Alcotest.(check bool) (name ^ " gap non-negative") true
        (Portfolio.gap_percent d >= 0.);
      check_legal (name ^ " portfolio") sched)
    (portfolio_instances ())

let test_portfolio_exact_wrapper () =
  let name, g, alloc = List.hd (portfolio_instances ()) in
  let sched, d = Portfolio.exact ~tc g alloc in
  let e = Exact.schedule ~tc g alloc in
  Alcotest.(check string) (name ^ " wrapper = Exact.schedule")
    (Export.to_string e.Exact.schedule)
    (Export.to_string sched);
  Alcotest.(check bool) "backend tagged exact" true (d.backend = Portfolio.Exact);
  Alcotest.(check bool) "selected arm is exact" true
    (d.selected = Portfolio.Exact_arm);
  Alcotest.(check int) "ticks = explored" d.explored d.ticks

let test_backend_string_roundtrip () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Portfolio.backend_to_string b ^ " roundtrips")
        true
        (Portfolio.backend_of_string (Portfolio.backend_to_string b) = Some b))
    Portfolio.all_backends;
  Alcotest.(check bool) "unknown rejected" true
    (Portfolio.backend_of_string "sat" = None)

(* --- Multi-start randomized list scheduling --- *)

module Multi_start = Mfb_schedule.Multi_start

let test_multistart_never_worse () =
  List.iter
    (fun (g, alloc) ->
      let single = Dcsa.schedule ~tc g alloc in
      let multi =
        Multi_start.schedule ~restarts:8 ~rng:(Mfb_util.Rng.create 3) ~tc g
          alloc
      in
      check_legal (Seq_graph.name g ^ " multi-start") multi.schedule;
      Alcotest.(check bool)
        (Seq_graph.name g ^ " multi <= single")
        true
        (multi.schedule.makespan <= single.makespan +. 1e-9);
      Alcotest.(check (float 1e-9)) "gain consistent"
        (single.makespan -. multi.schedule.makespan)
        multi.improved_over_first)
    (Testkit.suite_instances ())

let test_multistart_zero_noise_identity () =
  let g, alloc = List.nth (Testkit.suite_instances ()) 2 in
  let single = Dcsa.schedule ~tc g alloc in
  let multi =
    Multi_start.schedule ~restarts:4 ~noise:0. ~rng:(Mfb_util.Rng.create 1)
      ~tc g alloc
  in
  Alcotest.(check (float 1e-9)) "identical makespan" single.makespan
    multi.schedule.makespan

let test_multistart_validation () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  Alcotest.check_raises "restarts"
    (Invalid_argument "Multi_start.schedule: restarts < 1") (fun () ->
      ignore
        (Multi_start.schedule ~restarts:0 ~rng:(Mfb_util.Rng.create 1) ~tc g
           alloc));
  Alcotest.check_raises "noise"
    (Invalid_argument "Multi_start.schedule: negative noise") (fun () ->
      ignore
        (Multi_start.schedule ~noise:(-0.1) ~rng:(Mfb_util.Rng.create 1) ~tc
           g alloc))

let test_engine_priorities_validation () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  Alcotest.check_raises "length"
    (Invalid_argument "Engine.run: priorities length mismatch") (fun () ->
      ignore
        (Mfb_schedule.Engine.run ~priorities:[| 1.0 |] ~case1:true ~tc g
           alloc))

let test_utilization_cross_check () =
  (* Recompute Eq. 1 independently from the raw times. *)
  List.iter
    (fun (g, alloc) ->
      let sched = Dcsa.schedule ~tc g alloc in
      let n = Array.length sched.components in
      let manual =
        let per_component c =
          let mine =
            Array.to_list sched.times
            |> List.filter (fun (t : Types.op_times) -> t.component = c)
          in
          match mine with
          | [] -> 0.
          | ts ->
            let active =
              List.fold_left (fun acc (t : Types.op_times) ->
                  acc +. (t.finish -. t.start))
                0. ts
            in
            let first =
              List.fold_left (fun acc (t : Types.op_times) ->
                  Float.min acc t.start)
                infinity ts
            in
            let last =
              List.fold_left (fun acc (t : Types.op_times) ->
                  Float.max acc t.finish)
                0. ts
            in
            active /. (last -. first)
        in
        List.fold_left (fun acc c -> acc +. per_component c) 0.
          (List.init n Fun.id)
        /. float_of_int n
      in
      Alcotest.(check (float 1e-9))
        (Seq_graph.name g ^ " Eq. 1 cross-check")
        manual
        (Metrics.resource_utilization sched))
    (Testkit.suite_instances ())

(* --- JSON export --- *)

let test_export_json () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Dcsa.schedule ~tc g alloc in
  let json = Mfb_schedule.Export.to_string sched in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (Testkit.contains json needle))
    [ "\"assay\""; "\"PCR\""; "\"makespan\""; "\"operations\"";
      "\"transports\""; "\"washes\""; "\"cache_time\"" ];
  (* One entry per operation. *)
  let count needle hay =
    let rec loop i acc =
      if i + String.length needle > String.length hay then acc
      else if String.sub hay i (String.length needle) = needle then
        loop (i + 1) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check int) "seven operations" 7 (count "\"op\":" json)

(* --- Checker self-tests --- *)

let test_checker_detects_overlap () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Dcsa.schedule ~tc g alloc in
  (* Corrupt: force two ops onto one component at the same time. *)
  let times = Array.copy sched.times in
  times.(1) <- { (times.(0)) with in_place_parent = None };
  let bad = { sched with times } in
  Alcotest.(check bool) "violation found" true
    (Check.validate ~tc bad <> [])

let test_checker_detects_bad_makespan () =
  let g, alloc = List.hd (Testkit.suite_instances ()) in
  let sched = Dcsa.schedule ~tc g alloc in
  let bad = { sched with makespan = sched.makespan +. 100. } in
  Alcotest.(check bool) "makespan violation" true
    (List.exists
       (fun (v : Check.violation) -> v.code = "makespan")
       (Check.validate ~tc bad))

let suites =
  [
    ("schedule.legality", legality_tests);
    ( "schedule.strategy",
      [
        Alcotest.test_case "dcsa never slower than BA" `Quick
          test_dcsa_never_slower;
        Alcotest.test_case "case-I fires on PCR" `Quick
          test_dcsa_in_place_on_chains;
        Alcotest.test_case "case-I prefers hard-wash parent" `Quick
          test_case1_prefers_hard_wash_parent;
        Alcotest.test_case "case-I eliminates transport" `Quick
          test_case1_eliminates_transport;
        Alcotest.test_case "case-II earliest ready" `Quick
          test_case2_earliest_ready;
        Alcotest.test_case "eviction creates channel cache" `Quick
          test_eviction_creates_cache;
        Alcotest.test_case "single component serializes" `Quick
          test_single_component_serializes;
        Alcotest.test_case "fan-out copies" `Quick test_fanout_copies;
        Alcotest.test_case "loopback cache accounted" `Quick
          test_loopback_cache_accounted;
        Alcotest.test_case "deep chain all in place" `Quick
          test_deep_chain_in_place_throughout;
        Alcotest.test_case "wide independent layer" `Quick
          test_wide_independent_layer;
        Alcotest.test_case "validation" `Quick test_engine_validation;
      ] );
    ( "schedule.metrics",
      [
        Alcotest.test_case "utilization in range" `Quick
          test_utilization_range;
        Alcotest.test_case "utilization known value" `Quick
          test_utilization_known_value;
        Alcotest.test_case "busy time" `Quick test_busy_time;
        Alcotest.test_case "Eq. 1 cross-check" `Quick
          test_utilization_cross_check;
        Alcotest.test_case "transport invariants" `Quick
          test_transport_invariants;
        Alcotest.test_case "concurrency counts" `Quick
          test_concurrency_counts;
      ] );
    ( "schedule.properties",
      [
        prop_dcsa_legal;
        prop_baseline_legal;
        prop_makespan_lower_bound;
        prop_all_ops_scheduled;
      ] );
    ( "schedule.retime",
      [
        Alcotest.test_case "zero delays identity" `Quick
          test_retime_zero_delays_identity;
        Alcotest.test_case "negative delay rejected" `Quick
          test_retime_negative_delay_rejected;
        Alcotest.test_case "pushes consumer" `Quick test_retime_pushes_consumer;
        prop_retime_monotone;
        prop_retime_legal;
      ] );
    ( "schedule.dedicated",
      [
        Alcotest.test_case "legal on suite" `Quick
          test_dedicated_legal_on_suite;
        Alcotest.test_case "never faster than dcsa" `Quick
          test_dedicated_never_faster_than_dcsa;
        Alcotest.test_case "counts trips" `Quick test_dedicated_counts_trips;
        Alcotest.test_case "capacity one serializes" `Quick
          test_dedicated_capacity_one_serializes;
        Alcotest.test_case "validation" `Quick test_dedicated_validation;
        prop_dedicated_legal;
      ] );
    ( "schedule.exact",
      [
        Alcotest.test_case "never worse than heuristic" `Quick
          test_exact_never_worse_than_heuristic;
        Alcotest.test_case "legal and optimal on tiny" `Quick
          test_exact_schedules_legal;
        Alcotest.test_case "node limit" `Quick test_exact_node_limit;
        Alcotest.test_case "search api" `Quick test_search_api;
        prop_exact_bounds_heuristic;
        prop_exact_oracle_up_to_12_ops;
        Alcotest.test_case "empty assay" `Quick test_exact_empty_assay;
        Alcotest.test_case "single op" `Quick test_exact_single_op;
        Alcotest.test_case "independent ops: bound tight at root" `Quick
          test_exact_independent_ops_bound_tight;
        Alcotest.test_case "fuel exhaustion keeps incumbent" `Quick
          test_exact_fuel_exhaustion_keeps_incumbent;
      ] );
    ( "schedule.portfolio",
      [
        Alcotest.test_case "bit-identical to selected backend" `Quick
          test_portfolio_bit_identical_to_selected;
        Alcotest.test_case "deterministic across jobs and reruns" `Quick
          test_portfolio_deterministic_across_jobs;
        Alcotest.test_case "never worse than either arm" `Quick
          test_portfolio_never_worse_than_either_arm;
        Alcotest.test_case "exact wrapper" `Quick test_portfolio_exact_wrapper;
        Alcotest.test_case "backend string roundtrip" `Quick
          test_backend_string_roundtrip;
      ] );
    ( "schedule.multi_start",
      [
        Alcotest.test_case "never worse" `Quick test_multistart_never_worse;
        Alcotest.test_case "zero noise identity" `Quick
          test_multistart_zero_noise_identity;
        Alcotest.test_case "validation" `Quick test_multistart_validation;
        Alcotest.test_case "priorities validation" `Quick
          test_engine_priorities_validation;
      ] );
    ( "schedule.export",
      [ Alcotest.test_case "json dump" `Quick test_export_json ] );
    ( "schedule.checker",
      [
        Alcotest.test_case "detects overlap" `Quick
          test_checker_detects_overlap;
        Alcotest.test_case "detects bad makespan" `Quick
          test_checker_detects_bad_makespan;
      ] );
  ]
