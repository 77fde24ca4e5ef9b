(* Repair benchmark generator.

   For each benchmark, synthesises once, then sweeps seeded defect
   models over the chip and repairs each defect set incrementally
   (warm-start from the finished result), timing every repair against
   the cold alternative — re-running the full synthesis flow, which is
   what a defect-unaware system would have to do.  Reports:

   - warm-vs-cold median latency and the speedup (the SLO gate:
     warm-start repair must beat cold full resynthesis on median
     latency for single-cell defects, by --slo-x, default 1.0);
   - yield curves: survival fraction and escalation-rung histogram per
     defect model, and survival per virtual tick under the progressive
     model (a chip degrading in the field);
   - a legality gate: every surviving repair is audited with
     Plan.verify; any violation exits 1.

   Defect plans are pure functions of (--seed, chip), so CI replays the
   identical sweep from the seed alone.

   Run from the repo root with:
     dune exec bench/repair_gen.exe -- [--benchmarks PCR,IVD]
       [--defects N] [--seed S] [--slo-x F] [--out FILE]

   Writes the machine-readable summary to BENCH_repair.json (or --out). *)

module Json = Mfb_util.Json
module Defect = Mfb_repair.Defect
module Plan = Mfb_repair.Plan

open Bench_kit

let benchmarks =
  arg_value "--benchmarks" [ "PCR"; "IVD" ] (fun s ->
      Some (String.split_on_char ',' s))

let defects = arg_value "--defects" 10 int_of_string_opt
let seed = arg_value "--seed" 7 int_of_string_opt
let slo_x = arg_value "--slo-x" 1.0 float_of_string_opt
let out_file = arg_value "--out" "BENCH_repair.json" (fun s -> Some s)

let config = Mfb_core.Config.default

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e3)

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* One repair, audited.  Exits on a legality violation — the gate. *)
let repair_checked ~bench (r : Mfb_core.Result.t) targets =
  let o = Plan.repair ~config r ~defects:targets in
  if o.report.survived then begin
    match Plan.verify ~config ~defects:targets o with
    | [] -> o
    | errs ->
      fail "%s: legality violation repairing [%s]:\n  %s" bench
        (String.concat " " (List.map Defect.target_to_string targets))
        (String.concat "\n  " errs)
  end
  else o

let rung_key (report : Plan.report) =
  match report.rung with None -> "none" | Some r -> Plan.rung_name r

(* Sweep one defect model: repair each seeded plan whole, count
   survivals and the rung histogram, collect warm latencies. *)
let sweep ~bench (r : Mfb_core.Result.t) ~plans =
  let rungs = Hashtbl.create 8 in
  let survived = ref 0 in
  let total = ref 0 in
  let latencies = ref [] in
  List.iter
    (fun plan ->
      match Defect.targets plan with
      | [] -> ()
      | targets ->
        incr total;
        let o, ms = time (fun () -> repair_checked ~bench r targets) in
        latencies := ms :: !latencies;
        if o.report.survived then incr survived;
        let k = rung_key o.report in
        Hashtbl.replace rungs k
          (1 + Option.value ~default:0 (Hashtbl.find_opt rungs k)))
    plans;
  let rung_json =
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) rungs []
    |> List.sort compare
  in
  let json =
    Json.Obj
      [
        ("total", Json.Int !total);
        ("survived", Json.Int !survived);
        ( "yield",
          Json.Float
            (if !total = 0 then 1.0
             else float_of_int !survived /. float_of_int !total) );
        ("rungs", Json.Obj rung_json);
      ]
  in
  (json, Array.of_list (List.rev !latencies))

let bench_one name =
  let inst =
    match Mfb_core.Suite.find name with
    | Some i -> i
    | None -> fail "unknown benchmark %S" name
  in
  let synth () =
    Mfb_core.Flow.run ~config ~jobs:1 inst.graph inst.allocation
  in
  let r, first_cold_ms = time synth in
  (* Cold alternative: a defect-unaware system re-synthesises from
     scratch once per defect.  Time a sample of the same order as the
     warm sweep so the medians are comparable. *)
  let cold =
    Array.init (max 3 (min defects 8)) (fun i ->
        if i = 0 then first_cold_ms else snd (time synth))
  in
  let plans_of gen = List.init defects (fun i -> gen ~seed:(seed + i)) in
  let single_json, warm =
    sweep ~bench:name r ~plans:(plans_of (fun ~seed -> Defect.single_cell ~seed r.chip))
  in
  (* The single-cell model draws over the whole channel area, so many
     defects miss every route (rung "none").  The used sweep drives one
     defect through every cell the routing actually occupies — each
     repair does real rip-up work, making it the honest warm-latency
     population for the SLO gate. *)
  let used_json, warm_used =
    sweep ~bench:name r
      ~plans:
        (List.map
           (fun c -> [ { Defect.tick = 0; target = Defect.Cell c } ])
           (Mfb_route.Rgrid.used_cells r.routing.grid))
  in
  let warm = Array.append warm warm_used in
  let cluster_json, _ =
    sweep ~bench:name r
      ~plans:(plans_of (fun ~seed -> Defect.clustered ~seed ~radius:1 r.chip))
  in
  let component_json, _ =
    sweep ~bench:name r
      ~plans:(plans_of (fun ~seed -> Defect.component_fault ~seed r.chip))
  in
  (* Progressive degradation: one seeded plan, replayed tick by tick —
     the survival curve of a chip failing in the field. *)
  let prog = Defect.progressive ~seed ~count:(min defects 6) r.chip in
  let prog_curve =
    List.init (Defect.max_tick prog + 1) (fun tick ->
        match Defect.upto prog ~tick with
        | [] -> Json.Obj [ ("tick", Json.Int tick) ]
        | targets ->
          let o = repair_checked ~bench:name r targets in
          Json.Obj
            [
              ("tick", Json.Int tick);
              ("defects", Json.Int (List.length targets));
              ("survived", Json.Bool o.report.survived);
              ("rung", Json.String (rung_key o.report));
              ( "makespan_delta",
                Json.Float
                  (o.report.makespan_after -. o.report.makespan_before) );
            ])
  in
  let warm_med = median warm and cold_med = median cold in
  let speedup = if warm_med > 0.0 then cold_med /. warm_med else infinity in
  Printf.printf
    "%-11s cold median %8.2f ms   warm repair median %8.2f ms   speedup \
     %6.1fx\n"
    name cold_med warm_med speedup;
  let json =
    Json.Obj
      [
        ("benchmark", Json.String name);
        ("cold_median_ms", Json.Float cold_med);
        ("warm_median_ms", Json.Float warm_med);
        ("speedup", Json.Float speedup);
        ("single", single_json);
        ("used", used_json);
        ("cluster", cluster_json);
        ("component", component_json);
        ("progressive", Json.List prog_curve);
      ]
  in
  (json, speedup)

let () =
  if defects < 1 then fail "--defects must be >= 1";
  Printf.printf
    "repair generator: %d seeded defects per model, benchmarks %s, seed=%d\n\n"
    defects
    (String.concat "," benchmarks)
    seed;
  let results = List.map bench_one benchmarks in
  let worst_speedup =
    List.fold_left (fun acc (_, s) -> Float.min acc s) infinity results
  in
  let slo_ok = worst_speedup >= slo_x in
  Printf.printf
    "\nSLO: warm-start repair vs cold resynthesis, worst speedup %.1fx \
     (required >= %.1fx): %s\n"
    worst_speedup slo_x
    (if slo_ok then "ok" else "BREACH");
  let doc =
    Json.Obj
      [
        ( "workload",
          Json.Obj
            [
              ( "benchmarks",
                Json.List (List.map (fun b -> Json.String b) benchmarks) );
              ("defects", Json.Int defects);
              ("seed", Json.Int seed);
            ] );
        ("benchmarks", Json.List (List.map fst results));
        ( "slo",
          Json.Obj
            [
              ("required_speedup", Json.Float slo_x);
              ("worst_speedup", Json.Float worst_speedup);
              ("ok", Json.Bool slo_ok);
            ] );
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      Json.to_channel ~indent:1 oc doc);
  Printf.eprintf "wrote %s\n" out_file;
  if not slo_ok then
    fail "SLO breach: warm repair speedup %.2fx < required %.2fx"
      worst_speedup slo_x
