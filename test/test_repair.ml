(* The defect-repair subsystem: seeded defect plans, the incremental
   warm-start repair ladder, its legality oracle, and the determinism /
   telemetry obligations (reports byte-stable, counters jobs-invariant). *)

module Defect = Mfb_repair.Defect
module Plan = Mfb_repair.Plan
module Audit = Mfb_repair.Audit
module Warm = Mfb_repair.Warm
module Flow = Mfb_core.Flow
module Config = Mfb_core.Config
module Suite = Mfb_core.Suite
module Check = Mfb_schedule.Check
module Routed = Mfb_route.Routed
module Telemetry = Mfb_util.Telemetry
module Json = Mfb_util.Json

let qtest ?(count = 25) name gen prop =
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let cfg =
  let d = Config.default in
  { d with sa = { d.sa with t0 = 200.; i_max = 40 } }

let instance name =
  match Suite.find name with
  | Some i -> i
  | None -> Alcotest.failf "unknown benchmark %s" name

let result_of ?(jobs = 1) name =
  let inst = instance name in
  Flow.run ~config:cfg ~jobs ~route_io:true inst.graph inst.allocation

(* Memoised synthesis results — several tests repair the same designs. *)
let pcr = lazy (result_of "pcr")
let ivd = lazy (result_of "ivd")

let audit ~config ~defects (o : Plan.outcome) =
  Audit.check ~config ~defects o.schedule o.chip o.routing

let check_clean ~defects outcome =
  match audit ~config:cfg ~defects outcome with
  | [] -> ()
  | vs ->
    Alcotest.failf "repair verification: %s" (String.concat "; " vs)

(* --- Defect plans ----------------------------------------------------- *)

(* A JSON plan read back the way the CLI reads one, from a file. *)
let of_json json =
  let path = Filename.temp_file "defect_plan" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Json.to_string json));
      Defect.of_file path)

let test_plan_roundtrip () =
  let plan =
    [
      { Defect.tick = 0; target = Defect.Cell (3, 4) };
      { Defect.tick = 2; target = Defect.Component 1 };
    ]
  in
  (match of_json (Defect.to_json plan) with
   | Ok p -> Alcotest.(check bool) "roundtrip" true (p = plan)
   | Error e -> Alcotest.fail e);
  (* tick defaults to 0; unknown kinds are structured errors. *)
  (match
     of_json
       (Json.Obj
          [ ("defects",
             Json.List
               [ Json.Obj
                   [ ("kind", Json.String "cell"); ("x", Json.Int 1);
                     ("y", Json.Int 2) ] ]) ])
   with
   | Ok [ { Defect.tick = 0; target = Defect.Cell (1, 2) } ] -> ()
   | Ok _ -> Alcotest.fail "wrong parse"
   | Error e -> Alcotest.fail e);
  match
    of_json
      (Json.Obj
         [ ("defects", Json.List [ Json.Obj [ ("kind", Json.String "x") ] ])
         ])
  with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error _ -> ()

let test_generators_deterministic () =
  let r = Lazy.force pcr in
  List.iter
    (fun seed ->
      Alcotest.(check bool) "single_cell stable" true
        (Defect.single_cell ~seed r.chip = Defect.single_cell ~seed r.chip);
      let c = Defect.clustered ~seed ~radius:2 r.chip in
      Alcotest.(check bool) "clustered stable" true
        (c = Defect.clustered ~seed ~radius:2 r.chip);
      Alcotest.(check bool) "clustered non-empty" true (c <> []);
      let p = Defect.progressive ~seed ~count:5 r.chip in
      Alcotest.(check int) "progressive count" 5 (List.length p);
      Alcotest.(check int) "progressive ticks" 4
        (List.fold_left (fun acc (e : Defect.event) -> max acc e.tick) 0 p);
      Alcotest.(check int) "progressive distinct" 5
        (List.length (List.sort_uniq compare (Defect.targets p)));
      match (Defect.check r.chip c, Defect.check r.chip p) with
      | Ok (), Ok () -> ()
      | Error e, _ | _, Error e -> Alcotest.fail e)
    [ 0; 1; 7 ]

let test_cells_row_major () =
  (* The shared channel-cell enumeration is row-major and contains
     exactly the unblocked cells. *)
  let r = Lazy.force pcr in
  let cells = Defect.cells r.chip in
  let sorted =
    List.sort (fun (x1, y1) (x2, y2) -> compare (y1, x1) (y2, x2)) cells
  in
  Alcotest.(check bool) "row-major order" true (cells = sorted);
  List.iter
    (fun cell ->
      Alcotest.(check bool) "channel cells are unblocked" false
        (Mfb_route.Rgrid.blocked r.routing.grid cell))
    cells;
  let expected =
    (r.chip.width * r.chip.height)
    - List.length
        (List.sort_uniq compare (Mfb_place.Chip.blocked_cells r.chip))
  in
  Alcotest.(check int) "covers every channel cell" expected
    (List.length cells)

(* --- The repair ladder ------------------------------------------------ *)

let test_unused_cell_noop () =
  let r = Lazy.force pcr in
  let used = Mfb_route.Rgrid.used_cells r.routing.grid in
  let free =
    match
      List.find_opt (fun c -> not (List.mem c used)) (Defect.cells r.chip)
    with
    | Some c -> c
    | None -> Alcotest.fail "no free channel cell"
  in
  let defects = [ Defect.Cell free ] in
  let o = Plan.repair ~config:cfg r ~defects in
  Alcotest.(check int) "nothing ripped" 0 o.report.ripped_up;
  Alcotest.(check bool) "no rung" true (o.report.rung = None);
  Alcotest.(check bool) "survived" true o.report.survived;
  Alcotest.(check (float 1e-9)) "makespan kept" o.report.makespan_before
    o.report.makespan_after;
  check_clean ~defects o

let test_single_cell_repair_legal () =
  let r = Lazy.force pcr in
  (* Put the defect on a used cell so something is actually ripped. *)
  let defect = List.hd (Mfb_route.Rgrid.used_cells r.routing.grid) in
  let defects = [ Defect.Cell defect ] in
  let o = Plan.repair ~config:cfg r ~defects in
  Alcotest.(check bool) "ripped something" true (o.report.ripped_up > 0);
  if o.report.survived then check_clean ~defects o;
  Alcotest.(check bool) "makespan monotone" true
    (o.report.makespan_after >= o.report.makespan_before -. 1e-9)

let test_cached_fluid_cell_repair () =
  (* A defect under a stored (cached-in-channel) fluid: pick the cell
     whose occupation is longest — with channel caching that is a
     near-source parking cell holding a fluid over its whole cache
     window — and verify the repair still yields a legal design. *)
  let r = Lazy.force ivd in
  let longest = ref None in
  List.iter
    (fun (task : Routed.task) ->
      List.iter
        (fun (cell, iv) ->
          let len = Mfb_util.Interval.duration iv in
          match !longest with
          | Some (_, l) when l >= len -> ()
          | _ -> longest := Some (cell, len))
        (Routed.occupancy ~tc:cfg.tc task))
    r.routing.tasks;
  match !longest with
  | None -> Alcotest.fail "no occupations"
  | Some (cell, len) ->
    Alcotest.(check bool) "cell really caches a fluid" true
      (len > 2. *. cfg.tc);
    let defects = [ Defect.Cell cell ] in
    let o = Plan.repair ~config:cfg r ~defects in
    Alcotest.(check bool) "ripped the cached task" true
      (o.report.ripped_up > 0);
    if o.report.survived then check_clean ~defects o
    else Alcotest.(check bool) "failure counted" true (o.report.failed > 0)

let test_component_fault_rebinds () =
  let r = Lazy.force ivd in
  (* ivd allocates 3 mixers; kill one that executes operations so the
     rebind rung must actually move work. *)
  let busy =
    let used =
      Array.fold_left
        (fun acc (t : Mfb_schedule.Types.op_times) -> t.component :: acc)
        [] r.schedule.times
    in
    List.hd (List.sort_uniq compare used)
  in
  let defects = [ Defect.Component busy ] in
  let o = Plan.repair ~config:cfg r ~defects in
  if o.report.survived then begin
    Alcotest.(check bool) "rebound ops" true (o.report.rebound > 0);
    Alcotest.(check bool) "rung is at least rebind" true
      (o.report.rung = Some Plan.Rebound
      || o.report.rung = Some Plan.Resynthesized);
    Array.iter
      (fun (t : Mfb_schedule.Types.op_times) ->
        Alcotest.(check bool) "no op left on the dead component" true
          (t.component <> busy))
      o.schedule.times;
    check_clean ~defects o
  end
  else Alcotest.(check bool) "honest failure" true (o.report.failed > 0)

let test_footprint_cell_lifts_to_component () =
  let r = Lazy.force ivd in
  let cell = List.hd (Mfb_place.Chip.blocked_cells r.chip) in
  let o = Plan.repair ~config:cfg r ~defects:[ Defect.Cell cell ] in
  match o.report.targets with
  | [ Defect.Component c ] ->
    (match Defect.normalize r.chip [ Defect.Cell cell ] with
     | [], [ owner ] -> Alcotest.(check int) "lifted to owner" owner c
     | _ -> Alcotest.fail "blocked cell without owner")
  | _ -> Alcotest.fail "footprint cell not lifted to a component fault"

let test_last_task_path_defect () =
  (* A defect on the committed path of the last routed task must rip
     that task up: repair sees every committed path, including the
     final one (an off-by-one here would silently pass defects through
     the tail of the routing order). *)
  let r = Lazy.force pcr in
  match List.rev r.routing.tasks with
  | [] -> Alcotest.fail "instance routed no tasks"
  | (last : Routed.task) :: _ ->
    let defect = List.nth last.path (List.length last.path / 2) in
    let o = Plan.repair ~config:cfg r ~defects:[ Defect.Cell defect ] in
    Alcotest.(check bool) "defect recorded" true
      (o.report.targets = [ Defect.Cell defect ]);
    Alcotest.(check bool) "last task is ripped up" true
      (o.report.ripped_up >= 1)

let test_yield_bounds () =
  List.iter
    (fun r ->
      let y = Plan.single_defect_yield ~config:cfg (Lazy.force r) in
      Alcotest.(check bool) "yield in [0,1]" true
        (0. <= y.yield && y.yield <= 1.);
      Alcotest.(check bool) "survived <= tested" true
        (y.survived <= y.cells_tested);
      match y.worst with
      | Some (cell, report) ->
        Alcotest.(check bool) "worst cell is the target" true
          (report.targets = [ Defect.Cell cell ]);
        Alcotest.(check bool) "worst really failed" false
          (report.survived
          && (report.rung = None || report.rung = Some Plan.Rerouted))
      | None ->
        Alcotest.(check int) "perfect yield" y.cells_tested y.survived)
    [ pcr; ivd ]

(* The exact single-defect yield of each Table I design under the
   paper's parameters: (survived, cells tested) in suite order. *)
let yields variant =
  List.map
    (fun (inst : Suite.instance) ->
      let config = Config.default in
      let r = Flow.run ~config ~variant inst.graph inst.allocation in
      let y = Plan.single_defect_yield ~config r in
      (y.survived, y.cells_tested))
    (Suite.all ())

(* The paper flow's yields, as EXPERIMENTS.md quotes them. *)
let test_yield_pinned () =
  Alcotest.(check (list (pair int int))) "survived, cells tested"
    [ (7, 7); (6, 6); (50, 52); (19, 31); (56, 76); (45, 103); (100, 179) ]
    (yields `Ours)

(* The BA designs' yields, the same figure on a second design family. *)
let test_ba_yield_pinned () =
  Alcotest.(check (list (pair int int))) "survived, cells tested"
    [ (2, 2); (6, 6); (89, 127); (29, 56); (42, 93); (61, 150); (44, 126) ]
    (yields `Ba)

(* Every seeded defect class on every Table I design under the paper's
   parameters: each component dead, each used channel cell dead, 20
   radius-2 debris clusters, and the six tick prefixes of one seeded
   progressive plan.  A surviving repair must pass the full audit, and
   survived/total is pinned per design and class.  Synthetic2's cluster
   seed 8 needs a settle fallback below the task's own delay, which must
   be re-checked at that delay. *)
let test_table1_sweep_legal () =
  let config = Config.default in
  let repairs = ref 0 and illegal = ref [] in
  let survival (r : Mfb_core.Result.t) plans =
    let survived =
      List.fold_left
        (fun n defects ->
          incr repairs;
          let o = Plan.repair ~config r ~defects in
          if o.report.survived && audit ~config ~defects o <> [] then
            illegal :=
              Printf.sprintf "%s: %s" r.benchmark
                (String.concat " "
                   (List.map Defect.target_to_string defects))
              :: !illegal;
          if o.report.survived then n + 1 else n)
        0 plans
    in
    Printf.sprintf "%d/%d" survived (List.length plans)
  in
  let rows =
    List.map
      (fun (inst : Suite.instance) ->
        let r = Flow.run ~config inst.graph inst.allocation in
        let progressive = Defect.progressive ~seed:7 ~count:6 r.chip in
        String.concat " "
          [ r.benchmark;
            survival r
              (List.init (Array.length r.chip.components) (fun c ->
                   [ Defect.Component c ]));
            survival r
              (List.map
                 (fun xy -> [ Defect.Cell xy ])
                 (Mfb_route.Rgrid.used_cells r.routing.grid));
            survival r
              (List.init 20 (fun seed ->
                   Defect.targets (Defect.clustered ~seed ~radius:2 r.chip)));
            survival r
              (List.init 6 (fun tick -> Defect.upto progressive ~tick)) ])
      (Suite.all ())
  in
  Alcotest.(check (list string))
    "survived/total: component, used cell, cluster r=2, progressive"
    [ "PCR 0/3 7/7 20/20 6/6";
      "IVD 0/5 6/6 20/20 6/6";
      "CPA 0/10 52/52 20/20 6/6";
      "Synthetic1 3/9 31/31 20/20 6/6";
      "Synthetic2 0/11 75/76 18/20 6/6";
      "Synthetic3 4/16 81/103 19/20 6/6";
      "Synthetic4 5/18 164/179 20/20 5/6" ]
    rows;
  Alcotest.(check int) "repairs" 708 !repairs;
  Alcotest.(check (list string)) "illegal survivors" [] (List.rev !illegal)

(* --- Determinism and telemetry --------------------------------------- *)

let report_bytes o = Json.to_string (Plan.report_to_json o.Plan.report)

let test_repair_deterministic_and_jobs_invariant () =
  let defects = [ Defect.Cell (0, 0) ] in
  let r1 = result_of "pcr" and r2 = result_of ~jobs:2 "pcr" in
  let defect =
    List.hd (Mfb_route.Rgrid.used_cells r1.routing.grid)
  in
  let defects = Defect.Cell defect :: defects in
  let o1 = Plan.repair ~config:cfg r1 ~defects in
  let o1' = Plan.repair ~config:cfg r1 ~defects in
  let o2 = Plan.repair ~config:cfg r2 ~defects in
  Alcotest.(check string) "same run, same bytes" (report_bytes o1)
    (report_bytes o1');
  Alcotest.(check string) "jobs=2 synthesis, same bytes" (report_bytes o1)
    (report_bytes o2);
  Alcotest.(check bool) "same repaired schedule" true
    (o1.schedule = o2.schedule)

let counter sink name = Telemetry.counter_total sink ~cat:"repair" name

let test_repair_counters_jobs_invariant () =
  let run jobs =
    let r = result_of ~jobs "pcr" in
    let defect = List.hd (Mfb_route.Rgrid.used_cells r.routing.grid) in
    Test_util.with_fake_sink (fun sink ->
        let o = Plan.repair ~config:cfg r ~defects:[ Defect.Cell defect ] in
        ( o.report,
          ( counter sink "ripped_up",
            counter sink "rerouted",
            counter sink "rebound",
            counter sink "fallbacks" ) ))
  in
  let report1, c1 = run 1 in
  let report2, c2 = run 2 in
  Alcotest.(check bool) "counters jobs-invariant" true (c1 = c2);
  Alcotest.(check bool) "reports jobs-invariant" true (report1 = report2);
  let ripped, rerouted, rebound, fallbacks = c1 in
  Alcotest.(check int) "ripped_up counter matches report"
    report1.Plan.ripped_up ripped;
  Alcotest.(check int) "rerouted counter matches report"
    (report1.Plan.rerouted + report1.Plan.rerouted_delayed)
    rerouted;
  Alcotest.(check int) "rebound counter matches report" report1.Plan.rebound
    rebound;
  Alcotest.(check int) "fallbacks counter matches report"
    report1.Plan.fallbacks fallbacks

(* --- The qcheck legality oracle --------------------------------------- *)

(* For any synthesized benchmark and any channel-cell defect, a repair
   that claims success must produce a schedule passing [Check.validate]
   and a routing that replays conflict-free (wash separation included)
   while avoiding the defect — the audit's full obligation. *)
let repair_oracle =
  let gen =
    QCheck2.Gen.pair
      (QCheck2.Gen.oneofl [ "pcr"; "ivd" ])
      QCheck2.Gen.(int_bound 10_000)
  in
  qtest ~count:20 "repair legality oracle" gen (fun (name, salt) ->
      let r = Lazy.force (if name = "pcr" then pcr else ivd) in
      let cells = Mfb_route.Rgrid.used_cells r.routing.grid in
      let defect = List.nth cells (salt mod List.length cells) in
      let defects = [ Defect.Cell defect ] in
      let o = Plan.repair ~config:cfg r ~defects in
      if o.report.survived then audit ~config:cfg ~defects o = []
      else o.report.failed > 0)

(* --- The audit ---------------------------------------------------------- *)

let audit_result ~config (r : Mfb_core.Result.t) =
  Audit.check ~config r.schedule r.chip r.routing

let has_prefix prefix v =
  String.length v >= String.length prefix
  && String.sub v 0 (String.length prefix) = prefix

(* Table I in both flows, with and without I/O routing, under the
   paper's parameters: the audit flags exactly the three designs where
   the I/O router commits a dispense or waste run with its conflicts
   (its best effort, counted in [unresolved]). *)
let test_audit_table1_flags () =
  let config = Config.default in
  let flagged =
    List.concat_map
      (fun (inst : Suite.instance) ->
        List.concat_map
          (fun (variant, route_io) ->
            let r =
              Flow.run ~config ~variant ~route_io inst.graph inst.allocation
            in
            if audit_result ~config r = [] then []
            else
              [ Printf.sprintf "%s/%s%s" r.benchmark r.flow
                  (if route_io then "+io" else "") ])
          [ (`Ours, false); (`Ours, true); (`Ba, false); (`Ba, true) ])
      (Suite.all ())
  in
  Alcotest.(check (list string)) "flagged designs"
    [ "Synthetic3/ours+io"; "Synthetic3/ba+io"; "Synthetic4/ba+io" ]
    flagged

(* Doubling a task with a different fluid puts two fluids in its cells
   at once: the replay must notice. *)
let test_audit_detects_corruption () =
  let config = Config.default in
  let inst = instance "pcr" in
  let r = Flow.run ~config inst.graph inst.allocation in
  Alcotest.(check (list string)) "clean as synthesised" []
    (audit_result ~config r);
  match r.routing.tasks with
  | [] -> Alcotest.fail "expected tasks"
  | (task : Routed.task) :: _ ->
    let intruder = Mfb_bioassay.Fluid.make ~name:"intruder" ~diffusion:1e-6 in
    let clash =
      { task with transport = { task.transport with fluid = intruder } }
    in
    let corrupted =
      { r with routing = { r.routing with tasks = clash :: r.routing.tasks } }
    in
    Alcotest.(check bool) "occupation conflict flagged" true
      (List.exists
         (has_prefix "routing: occupation conflict")
         (audit_result ~config corrupted))

(* A defect the design still uses: a cell on a routed path, and the
   source component of that path. *)
let test_audit_flags_defects () =
  let r = Lazy.force pcr in
  let task =
    List.find (fun (t : Routed.task) -> t.kind = Routed.Transport)
      r.routing.tasks
  in
  let cell = List.nth task.path (List.length task.path / 2) in
  let flags defects prefix =
    List.exists (has_prefix prefix)
      (Audit.check ~config:cfg ~defects r.schedule r.chip r.routing)
  in
  Alcotest.(check bool) "clean without defects" true
    (audit_result ~config:cfg r = []);
  Alcotest.(check bool) "path over a defect cell" true
    (flags [ Defect.Cell cell ] "routing: path of edge");
  Alcotest.(check bool) "operation on a dead component" true
    (flags [ Defect.Component task.transport.src ] "binding:")

(* A distance-0 warm start replays the cached routing task for task; the
   result audits clean.  The quality gate is opened wide (Table I's
   routed makespans reach 1.55x the pre-routing one) so that every
   design yields a warm result to audit. *)
let test_audit_warm_distance_zero () =
  let config = Config.default in
  List.iter
    (fun (inst : Suite.instance) ->
      let cached = Flow.run ~config inst.graph inst.allocation in
      match
        Warm.synthesize ~config ~cached ~delta:1.0 inst.graph inst.allocation
      with
      | Error e ->
        Alcotest.failf "%s: warm start fell back: %s" cached.benchmark e
      | Ok (r, _) ->
        Alcotest.(check (list string)) cached.benchmark []
          (audit_result ~config r))
    (Suite.all ())

let suites =
  [
    ( "repair.audit",
      [
        Alcotest.test_case "Table I flags" `Quick test_audit_table1_flags;
        Alcotest.test_case "detects corruption" `Quick
          test_audit_detects_corruption;
        Alcotest.test_case "flags defects" `Quick test_audit_flags_defects;
        Alcotest.test_case "distance-0 warm start audits clean" `Quick
          test_audit_warm_distance_zero;
      ] );
    ( "repair.defect",
      [
        Alcotest.test_case "plan JSON roundtrip" `Quick test_plan_roundtrip;
        Alcotest.test_case "generators deterministic" `Quick
          test_generators_deterministic;
        Alcotest.test_case "cells is row-major" `Quick test_cells_row_major;
      ] );
    ( "repair.plan",
      [
        Alcotest.test_case "unused cell is a no-op" `Quick
          test_unused_cell_noop;
        Alcotest.test_case "single-cell repair is legal" `Quick
          test_single_cell_repair_legal;
        Alcotest.test_case "defect under a cached fluid" `Quick
          test_cached_fluid_cell_repair;
        Alcotest.test_case "component fault rebinds" `Quick
          test_component_fault_rebinds;
        Alcotest.test_case "footprint cell lifts to component fault" `Quick
          test_footprint_cell_lifts_to_component;
        Alcotest.test_case "last task's path is repairable" `Quick
          test_last_task_path_defect;
        Alcotest.test_case "yield bounds" `Quick test_yield_bounds;
        Alcotest.test_case "yield pinned" `Quick test_yield_pinned;
        Alcotest.test_case "BA yield pinned" `Quick test_ba_yield_pinned;
        Alcotest.test_case "Table I sweep legal" `Quick
          test_table1_sweep_legal;
        repair_oracle;
      ] );
    ( "repair.determinism",
      [
        Alcotest.test_case "report bytes stable across runs and jobs"
          `Quick test_repair_deterministic_and_jobs_invariant;
        Alcotest.test_case "counters jobs-invariant" `Quick
          test_repair_counters_jobs_invariant;
      ] );
  ]
