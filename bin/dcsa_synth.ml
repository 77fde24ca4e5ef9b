(* Command-line front-end for the DCSA physical synthesis flow.

   dcsa-synth list
   dcsa-synth run -b CPA [--flow ours|ba] [--layout] [--schedule] [--json]
   dcsa-synth run -b CPA --trace t.json --metrics --timing
   dcsa-synth compare [-b CPA]      # Table I (one row or the whole suite)
   dcsa-synth synth -n 40 -s 7      # synthesise a random assay
   dcsa-synth trace t.json          # validate/summarise a Chrome trace *)

open Cmdliner
module Telemetry = Mfb_util.Telemetry

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Log stage timings and telemetry span open/close events.")

(* Telemetry session around one command: a sink is installed whenever
   any observability output is requested ([-v] included, so span
   open/close reach the debug log); the Chrome trace and the folded
   flamegraph stacks are written after the command body finishes.
   [clock] stamps the spans (default: wall time). *)
let with_telemetry ?clock ~verbose ~trace ?folded ~metrics f =
  if not (verbose || metrics || trace <> None || folded <> None) then f ()
  else begin
    let sink = Telemetry.make_sink ?clock () in
    Telemetry.install sink;
    if verbose then
      Telemetry.set_span_hook
        (Some
           (fun dir ~depth name ->
             Logs.debug (fun m ->
                 m "span%s %s%s"
                   (match dir with `Open -> ">" | `Close -> "<")
                   (String.make (2 * depth) ' ')
                   name)));
    let v = f () in
    (match trace with
     | Some path ->
       Out_channel.with_open_text path (fun oc ->
           Mfb_util.Json.to_channel ~indent:1 oc
             (Telemetry.to_chrome_json sink));
       Printf.eprintf "wrote %s\n" path
     | None -> ());
    (match folded with
     | Some path ->
       Out_channel.with_open_text path (fun oc ->
           output_string oc (Telemetry.to_folded sink));
       Printf.eprintf "wrote %s\n" path
     | None -> ());
    v
  end

let print_result ?(metrics = false) ?(timing = false) ~layout ~schedule
    ~gantt ~json ~svg (r : Mfb_core.Result.t) =
  if json then
    print_endline (Mfb_util.Json.to_string ~indent:2 (Mfb_core.Result.to_json r))
  else begin
    Format.printf "%a@." Mfb_core.Result.pp_summary r;
    (match r.decision with
     | None -> ()
     | Some d ->
       Format.printf "backend %s: selected=%s heuristic=%.2fs best=%.2fs \
                      gap=%.1f%% %s (explored %d of %d)@."
         (Mfb_schedule.Portfolio.backend_to_string d.backend)
         (Mfb_schedule.Portfolio.arm_to_string d.selected)
         d.heuristic_makespan d.makespan
         (Mfb_schedule.Portfolio.gap_percent d)
         (if d.optimal then "optimal" else "truncated")
         d.explored d.fuel);
    if timing then begin
      print_newline ();
      print_string (Mfb_core.Report.timing_table [ r ])
    end;
    if metrics then begin
      print_newline ();
      print_string (Mfb_core.Report.metrics_table [ r ])
    end;
    if schedule then begin
      Format.printf "@.%a@." Mfb_schedule.Types.pp r.schedule;
      List.iter
        (fun tr ->
          Format.printf "  transport %a@." Mfb_schedule.Types.pp_transport tr)
        r.schedule.transports
    end;
    if gantt then begin
      print_newline ();
      print_string (Mfb_core.Gantt.render r.schedule)
    end;
    if layout then begin
      print_newline ();
      print_string (Mfb_core.Layout_render.render r)
    end
  end;
  match svg with
  | Some path ->
    Mfb_core.Layout_svg.to_file path r;
    Printf.eprintf "wrote %s\n" path
  | None -> ()

(* --- common options --- *)

let benchmark_arg =
  let doc = "Benchmark name (PCR, IVD, CPA, Synthetic1..Synthetic4)." in
  Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~doc)

(* An int converter that rejects values < 1 at parse time, so --jobs 0
   fails like any other malformed option instead of as an uncaught
   exception deep in the flow. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not >= 1" n))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* The same for --tc: 0, inf, nan or anything above Config.max_tc is a
   usage error. *)
let tc_float =
  let max_tc = Mfb_core.Config.max_tc in
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when Float.is_finite x && x > 0. && x <= max_tc -> Ok x
    | Ok x when Float.is_finite x && x > 0. ->
      Error (`Msg (Printf.sprintf "%s is above the limit of %g" s max_tc))
    | Ok _ -> Error (`Msg (Printf.sprintf "%s is not a finite number > 0" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let tc_arg =
  let doc =
    Printf.sprintf "Transport-time constant t_c in seconds, at most %g."
      Mfb_core.Config.max_tc
  in
  Arg.(value & opt tc_float Mfb_core.Config.default.tc & info [ "tc" ] ~doc)

let seed_arg =
  let doc = "Random seed for the annealing placer." in
  Arg.(value & opt int Mfb_core.Config.default.seed & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel sections (annealing restarts, \
     suite instances).  Results are bit-for-bit identical for every \
     value; the default is the recommended domain count of the host."
  in
  Arg.(
    value
    & opt positive_int (Mfb_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~doc ~docv:"N")

let sa_restarts_arg =
  let doc =
    "Independent simulated-annealing restarts per placement; the lowest \
     energy wins deterministically."
  in
  Arg.(
    value
    & opt positive_int Mfb_core.Config.default.sa_restarts
    & info [ "sa-restarts" ] ~doc ~docv:"N")

let backend_arg =
  let doc =
    "Scheduling backend: 'heuristic' (the paper's Alg. 1), 'exact' \
     (branch-and-bound oracle for small assays), or 'portfolio' (race \
     both and keep the better schedule)."
  in
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun b -> (Mfb_schedule.Portfolio.backend_to_string b, b))
              Mfb_schedule.Portfolio.all_backends))
        Mfb_schedule.Portfolio.Heuristic
    & info [ "backend" ] ~doc)

let exact_fuel_arg =
  let doc =
    "Node budget (virtual ticks) of the exact backend; when exhausted \
     the best incumbent is returned with truncated=true."
  in
  Arg.(
    value
    & opt positive_int Mfb_core.Config.default.exact_fuel
    & info [ "exact-fuel" ] ~doc ~docv:"N")

let config_of ?(sa_restarts = Mfb_core.Config.default.sa_restarts)
    ?(backend = Mfb_core.Config.default.backend)
    ?(exact_fuel = Mfb_core.Config.default.exact_fuel) tc seed =
  { Mfb_core.Config.default with tc; seed; sa_restarts; backend; exact_fuel }

let flow_arg =
  let doc = "Which flow to run: 'ours' (the paper's) or 'ba' (baseline)." in
  Arg.(
    value
    & opt (enum [ ("ours", `Ours); ("ba", `Ba) ]) `Ours
    & info [ "f"; "flow" ] ~doc)

let layout_arg =
  Arg.(value & flag & info [ "layout" ] ~doc:"Print the ASCII chip layout.")

let schedule_arg =
  Arg.(value & flag & info [ "schedule" ] ~doc:"Print the schedule and transports.")

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit metrics as JSON.")

let svg_arg =
  let doc = "Write the chip layout to $(docv) as SVG." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Record telemetry and write a Chrome trace_event JSON file to $(docv) \
     (load it in Perfetto or chrome://tracing, or check it with \
     'dcsa-synth trace $(docv)')."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let folded_arg =
  let doc =
    "Record telemetry and write folded flamegraph stacks to $(docv) \
     (one 'stack value' line per distinct span stack; feed to \
     flamegraph.pl or speedscope)."
  in
  Arg.(value & opt (some string) None & info [ "folded" ] ~doc ~docv:"FILE")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record telemetry and print the aggregated metrics table (with \
           --json the aggregates land in the result's 'metrics' field).")

let timing_arg =
  Arg.(
    value & flag
    & info [ "timing" ] ~doc:"Also print the per-stage wall vs CPU table.")

let input_arg =
  let doc = "Load the bioassay from an assay file instead of a built-in \
             benchmark (see lib/bioassay/assay_file.mli for the format)." in
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~doc ~docv:"FILE")

let alloc_arg =
  let doc = "Component allocation as M,H,F,D (e.g. 3,1,0,2); defaults to \
             one component per kind used by the assay." in
  Arg.(value & opt (some string) None & info [ "a"; "alloc" ] ~doc ~docv:"M,H,F,D")

let parse_alloc s =
  match List.map int_of_string_opt (String.split_on_char ',' s) with
  | [ Some m; Some h; Some f; Some d ] ->
    (match Mfb_component.Allocation.of_vector (m, h, f, d) with
     | alloc -> Ok alloc
     | exception Invalid_argument msg -> Error msg)
  | _ -> Error (Printf.sprintf "cannot parse allocation %S (want M,H,F,D)" s)

let lookup_benchmark name =
  match Mfb_core.Suite.find name with
  | Some inst -> Ok inst
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %S; try: %s" name
         (String.concat ", " Mfb_core.Suite.names))

(* Resolve the instance to synthesise from [-b] or [-i]/[-a]. *)
let resolve_instance ~benchmark ~input ~alloc =
  match benchmark, input with
  | Some _, Some _ -> Error "use either -b or -i, not both"
  | Some name, None -> lookup_benchmark name
  | None, Some path ->
    (match Mfb_bioassay.Assay_file.of_file path with
     | Error e ->
       Error (Format.asprintf "%s: %a" path Mfb_bioassay.Assay_file.pp_error e)
     | Ok graph ->
       let allocation =
         match alloc with
         | None -> Ok (Mfb_component.Allocation.minimal_for graph)
         | Some s -> parse_alloc s
       in
       Stdlib.Result.map
         (fun allocation -> { Mfb_core.Suite.graph; allocation })
         allocation)
  | None, None -> Error "missing -b BENCHMARK or -i FILE; see 'dcsa-synth list'"

(* --- list --- *)

let list_cmd =
  let action () =
    List.iter
      (fun (inst : Mfb_core.Suite.instance) ->
        Printf.printf "%-11s %3d ops  allocation %s\n"
          (Mfb_bioassay.Seq_graph.name inst.graph)
          (Mfb_bioassay.Seq_graph.n_ops inst.graph)
          (Mfb_component.Allocation.to_string inst.allocation))
      (Mfb_core.Suite.all ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in Table-I benchmarks.")
    Term.(const action $ const ())

(* --- run --- *)

let run_cmd =
  let action verbose benchmark input alloc flow tc seed sa_restarts backend
      exact_fuel jobs layout schedule gantt json svg trace folded metrics
      timing =
    setup_logs verbose;
    if flow = `Ba && backend <> Mfb_schedule.Portfolio.Heuristic then
      `Error (false, "--backend exact/portfolio replaces the DCSA \
                      scheduler; it cannot run with --flow ba")
    else
      match resolve_instance ~benchmark ~input ~alloc with
      | Error msg -> `Error (false, msg)
      | Ok inst ->
        let config = config_of ~sa_restarts ~backend ~exact_fuel tc seed in
        with_telemetry ~verbose ~trace ?folded ~metrics (fun () ->
            print_result ~metrics ~timing ~layout ~schedule ~gantt ~json ~svg
              (Mfb_core.Flow.run ~config ~variant:flow ~jobs inst.graph
                 inst.allocation));
        `Ok ()
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Synthesise one benchmark (or an assay file) with the chosen flow \
          and print metrics.")
    Term.(
      ret
        (const action $ verbose_arg $ benchmark_arg $ input_arg $ alloc_arg
       $ flow_arg $ tc_arg $ seed_arg $ sa_restarts_arg $ backend_arg
       $ exact_fuel_arg $ jobs_arg
       $ layout_arg $ schedule_arg $ gantt_arg $ json_arg $ svg_arg
       $ trace_arg $ folded_arg $ metrics_arg $ timing_arg))

(* --- compare --- *)

let compare_cmd =
  let html_arg =
    let doc = "Also write a standalone HTML report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "html" ] ~doc ~docv:"FILE")
  in
  let action verbose benchmark tc seed sa_restarts jobs json html timing
      trace metrics =
    setup_logs verbose;
    let config = config_of ~sa_restarts tc seed in
    let instances =
      match benchmark with
      | None -> Ok (Mfb_core.Suite.all ())
      | Some name -> Stdlib.Result.map (fun i -> [ i ]) (lookup_benchmark name)
    in
    match instances with
    | Error msg -> `Error (false, msg)
    | Ok instances ->
      with_telemetry ~verbose ~trace ~metrics (fun () ->
          let pairs = Mfb_core.Suite.run_pairs ~jobs ~config ~instances () in
          let results =
            List.concat_map (fun (ours, ba) -> [ ours; ba ]) pairs
          in
          if timing then begin
            print_string (Mfb_core.Report.timing_table results);
            print_newline ()
          end;
          if metrics && not json then begin
            print_string (Mfb_core.Report.metrics_table results);
            print_newline ()
          end;
          if json then
            print_endline
              (Mfb_util.Json.to_string ~indent:2
                 (Mfb_core.Report.suite_to_json pairs))
          else begin
            print_string (Mfb_core.Report.table1 pairs);
            print_newline ();
            print_string (Mfb_core.Report.fig8 pairs);
            print_newline ();
            print_string (Mfb_core.Report.fig9 pairs)
          end;
          match html with
          | Some path ->
            Mfb_core.Report_html.to_file path pairs;
            Printf.eprintf "wrote %s\n" path
          | None -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Run both flows and print the Table-I style comparison (whole suite \
          by default).  Independent instances run on --jobs domains.")
    Term.(
      ret (const action $ verbose_arg $ benchmark_arg $ tc_arg $ seed_arg
         $ sa_restarts_arg $ jobs_arg $ json_arg $ html_arg $ timing_arg
         $ trace_arg $ metrics_arg))

(* --- synth (random assay) --- *)

let synth_cmd =
  let n_ops_arg =
    Arg.(value & opt int 30 & info [ "n"; "ops" ] ~doc:"Number of operations.")
  in
  let gseed_arg =
    Arg.(value & opt int 1 & info [ "s"; "graph-seed" ] ~doc:"Generator seed.")
  in
  let action verbose n_ops gseed tc seed sa_restarts backend exact_fuel jobs
      layout schedule gantt json svg trace folded metrics timing =
    setup_logs verbose;
    if n_ops < 2 then `Error (false, "need at least 2 operations")
    else begin
      let graph =
        Mfb_bioassay.Synthetic.generate
          ~name:(Printf.sprintf "random-%d-%d" n_ops gseed)
          { Mfb_bioassay.Synthetic.default_params with
            n_ops;
            kind_weights = [| 4; 2; 1; 1 |];
            layer_width = max 3 (n_ops / 6);
            seed = gseed }
      in
      let mixers = max 2 (n_ops / 6) in
      let allocation =
        Mfb_component.Allocation.make ~mixers ~heaters:(max 1 (mixers / 2))
          ~filters:1 ~detectors:1
      in
      let config = config_of ~sa_restarts ~backend ~exact_fuel tc seed in
      with_telemetry ~verbose ~trace ?folded ~metrics (fun () ->
          print_result ~metrics ~timing ~layout ~schedule ~gantt ~json ~svg
            (Mfb_core.Flow.run ~config ~jobs graph allocation));
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Generate a random bioassay and synthesise it with the DCSA flow.")
    Term.(
      ret
        (const action $ verbose_arg $ n_ops_arg $ gseed_arg $ tc_arg
       $ seed_arg $ sa_restarts_arg $ backend_arg $ exact_fuel_arg
       $ jobs_arg $ layout_arg $ schedule_arg
       $ gantt_arg $ json_arg $ svg_arg $ trace_arg $ folded_arg
       $ metrics_arg $ timing_arg))

(* --- explore (architectural synthesis) --- *)

let explore_cmd =
  let action benchmark input tc =
    match resolve_instance ~benchmark ~input ~alloc:None with
    | Error msg -> `Error (false, msg)
    | Ok { graph; _ } ->
      let frontier = Mfb_core.Allocator.explore ~tc graph in
      List.iter
        (fun (p : Mfb_core.Allocator.point) ->
          Printf.printf "%-10s %2d components  %7.1f s  util %4.1f%%\n"
            (Mfb_component.Allocation.to_string p.allocation)
            p.components p.completion_time (100. *. p.utilization))
        frontier;
      (match Mfb_core.Allocator.knee frontier with
       | Some k ->
         Printf.printf "knee: %s (%.1f s)\n"
           (Mfb_component.Allocation.to_string k.allocation)
           k.completion_time
       | None -> ());
      `Ok ()
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore the allocation space: Pareto frontier of (components, \
          completion time).")
    Term.(ret (const action $ benchmark_arg $ input_arg $ tc_arg))

(* --- info (assay statistics) --- *)

let info_cmd =
  let action benchmark input =
    match resolve_instance ~benchmark ~input ~alloc:None with
    | Error msg -> `Error (false, msg)
    | Ok { graph = g; _ } ->
      let counts = Mfb_bioassay.Seq_graph.kind_counts g in
      let volume = Mfb_bioassay.Volume.analyse g in
      Printf.printf "%s\n" (Mfb_bioassay.Seq_graph.name g);
      Printf.printf "  operations      %d (mix %d, heat %d, filter %d, detect %d)\n"
        (Mfb_bioassay.Seq_graph.n_ops g) counts.(0) counts.(1) counts.(2)
        counts.(3);
      Printf.printf "  edges           %d\n" (Mfb_bioassay.Seq_graph.n_edges g);
      Printf.printf "  depth           %d levels\n"
        (Mfb_bioassay.Seq_graph.depth g);
      Printf.printf "  width profile   %s\n"
        (String.concat ","
           (List.map string_of_int (Mfb_bioassay.Seq_graph.width_profile g)));
      Printf.printf "  critical path   %.1f s (tc = %.1f)\n"
        (Mfb_bioassay.Seq_graph.critical_path g
           ~tc:Mfb_core.Config.default.tc)
        Mfb_core.Config.default.tc;
      Printf.printf "  sources/sinks   %d/%d\n"
        (List.length (Mfb_bioassay.Seq_graph.sources g))
        (List.length (Mfb_bioassay.Seq_graph.sinks g));
      Printf.printf "  reagent bill    %.2f chamber units\n"
        (Mfb_bioassay.Volume.total_reagent volume);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:"Print structural statistics and the reagent bill of an assay.")
    Term.(ret (const action $ benchmark_arg $ input_arg))

(* --- control (control-layer synthesis) --- *)

let control_cmd =
  let action benchmark tc seed =
    match benchmark with
    | None -> `Error (false, "missing -b BENCHMARK")
    | Some name ->
      (match lookup_benchmark name with
       | Error msg -> `Error (false, msg)
       | Ok inst ->
         let config = config_of tc seed in
         let r = Mfb_core.Flow.run ~config inst.graph inst.allocation in
         let valves = Mfb_control.Valve_map.of_routing r.routing in
         let steps =
           Mfb_control.Actuation.steps ~tc:config.tc valves r.routing
         in
         let events = Mfb_control.Actuation.toggle_sequence steps in
         let n = max 1 (Mfb_control.Valve_map.count valves) in
         let naive =
           Mfb_control.Mux.switching_cost (Mfb_control.Mux.naive ~n) ~events
         in
         let optimized =
           Mfb_control.Mux.switching_cost
             (Mfb_control.Mux.greedy ~events ~n)
             ~events
         in
         let esc =
           Mfb_control.Escape.route ~width:r.chip.width ~height:r.chip.height
             valves
         in
         Printf.printf "%s control layer\n" r.benchmark;
         Printf.printf "  valves              %d\n"
           (Mfb_control.Valve_map.count valves);
         Printf.printf "  mux pins            %d\n" (Mfb_control.Mux.pins_needed n);
         Printf.printf "  actuation steps     %d\n" (List.length steps);
         Printf.printf "  valve switches      %d\n"
           (Mfb_control.Actuation.valve_switching steps);
         Printf.printf "  pin toggles naive   %d\n" naive;
         Printf.printf "  pin toggles greedy  %d (%.1f%% less)\n" optimized
           (Mfb_control.Mux.improvement_percent ~naive ~optimized);
         Printf.printf "  escape routed       %d/%d lines, %d pins, %d cells\n"
           (List.length esc.lines)
           (Mfb_control.Valve_map.count valves)
           esc.pins esc.total_length;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "control"
       ~doc:
         "Synthesise a benchmark, derive its control layer (valves, \
          actuation, mux addressing, escape routing), and print the \
          figures.")
    Term.(ret (const action $ benchmark_arg $ tc_arg $ seed_arg))

(* --- trace (validate / summarise observability artifacts) --- *)

let validate_chrome path contents =
  let module J = Mfb_util.Json in
  match J.of_string contents with
  | Error e -> `Error (false, Printf.sprintf "%s: invalid JSON (%s)" path e)
  | Ok doc ->
    (match J.member "traceEvents" doc with
     | Some (J.List events) ->
       let spans = ref 0 and samples = ref 0 and instants = ref 0 in
       let meta = ref 0 and bad = ref 0 in
       let tids = Hashtbl.create 16 and cats = Hashtbl.create 16 in
       List.iter
         (fun ev ->
           match J.member "ph" ev, J.member "name" ev with
           | Some (J.String ph), Some (J.String _) ->
             (match J.member "tid" ev with
              | Some (J.Int tid) -> Hashtbl.replace tids tid ()
              | _ -> ());
             (match J.member "cat" ev with
              | Some (J.String c) -> Hashtbl.replace cats c ()
              | _ -> ());
             (match ph with
              | "X" ->
                (* Complete events must carry ts and dur. *)
                (match J.member "ts" ev, J.member "dur" ev with
                 | Some _, Some _ -> incr spans
                 | _ -> incr bad)
              | "C" -> incr samples
              | "i" -> incr instants
              | "M" -> incr meta
              | _ -> incr bad)
           | _ -> incr bad)
         events;
       if !bad > 0 then
         `Error
           (false,
            Printf.sprintf "%s: %d malformed trace event(s)" path !bad)
       else begin
         let sorted tbl =
           Hashtbl.fold (fun k () acc -> k :: acc) tbl []
           |> List.sort compare
         in
         Printf.printf
           "valid Chrome trace: %d span(s), %d counter sample(s), %d \
            instant(s) on %d track(s)\n"
           !spans !samples !instants
           (Hashtbl.length tids);
         Printf.printf "categories: %s\n"
           (String.concat ", " (sorted cats));
         `Ok ()
       end
     | Some _ -> `Error (false, path ^ ": traceEvents is not an array")
     | None -> `Error (false, path ^ ": no traceEvents array"))

let nonempty_lines contents =
  String.split_on_char '\n' contents
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")

(* Folded stacks: every line is "stack;frames value" with a positive
   integer value and no empty frame. *)
let validate_folded path contents =
  let errors = ref [] and stacks = ref 0 and total = ref 0 in
  List.iter
    (fun (ln, line) ->
      let err msg =
        errors := Printf.sprintf "%s:%d: %s" path ln msg :: !errors
      in
      match String.rindex_opt line ' ' with
      | None -> err "expected 'stack value' (no space found)"
      | Some i ->
        let stack = String.sub line 0 i in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        (match int_of_string_opt value with
         | None -> err (Printf.sprintf "value %S is not an integer" value)
         | Some v when v < 1 -> err "span value must be >= 1"
         | Some v ->
           if stack = "" then err "empty stack"
           else if
             List.exists
               (fun f -> f = "")
               (String.split_on_char ';' stack)
           then err "empty frame in stack"
           else begin
             incr stacks;
             total := !total + v
           end))
    (nonempty_lines contents);
  match List.rev !errors with
  | [] ->
    Printf.printf "valid folded stacks: %d stack(s), %d unit(s) total\n"
      !stacks !total;
    `Ok ()
  | e :: _ as all ->
    List.iter prerr_endline all;
    `Error (false, Printf.sprintf "%d malformed line(s), first: %s"
              (List.length all) e)

(* Access log: one JSON object per line with the serving tier's fixed
   record shape. *)
let validate_access path contents =
  let module J = Mfb_util.Json in
  let errors = ref [] and records = ref 0 in
  let outcomes = Hashtbl.create 8 in
  List.iter
    (fun (ln, line) ->
      let err msg =
        errors := Printf.sprintf "%s:%d: %s" path ln msg :: !errors
      in
      match J.of_string line with
      | Error e -> err (Printf.sprintf "invalid JSON (%s)" e)
      | Ok record ->
        let str k =
          match J.member k record with
          | Some (J.String s) -> Some s
          | _ -> None
        in
        let int_ok k =
          match J.member k record with Some (J.Int _) -> true | _ -> false
        in
        let missing =
          List.filter
            (fun k -> str k = None)
            [ "rid"; "id"; "key"; "backend"; "outcome" ]
          @ List.filter
              (fun k -> not (int_ok k))
              [ "queue_ticks"; "compute_ticks"; "total_ticks" ]
        in
        (match missing with
         | [] ->
           let outcome = Option.get (str "outcome") in
           if
             not
               (List.mem outcome
                  [ "hit"; "done"; "shed"; "rejected"; "near-hit";
                    "repair"; "repair-cold" ])
           then err (Printf.sprintf "unknown outcome %S" outcome)
           else begin
             incr records;
             Hashtbl.replace outcomes outcome
               (1
               + Option.value ~default:0
                   (Hashtbl.find_opt outcomes outcome))
           end
         | ks ->
           err
             (Printf.sprintf "missing or mistyped field(s): %s"
                (String.concat ", " ks))))
    (nonempty_lines contents);
  match List.rev !errors with
  | [] ->
    let count k = Option.value ~default:0 (Hashtbl.find_opt outcomes k) in
    (* newer outcome classes are appended only when present, so logs
       from older scripts keep their validation output bytes *)
    let extras =
      List.filter_map
        (fun k ->
          let n = count k in
          if n = 0 then None else Some (Printf.sprintf ", %d %s" n k))
        [ "near-hit"; "repair"; "repair-cold" ]
    in
    Printf.printf
      "valid access log: %d record(s) (%d done, %d hit, %d shed, %d \
       rejected%s)\n"
      !records (count "done") (count "hit") (count "shed")
      (count "rejected")
      (String.concat "" extras);
    `Ok ()
  | e :: _ as all ->
    List.iter prerr_endline all;
    `Error (false, Printf.sprintf "%d malformed line(s), first: %s"
              (List.length all) e)

let trace_cmd =
  let file_arg =
    let doc =
      "Observability artifact: a Chrome trace_event JSON file (--trace), \
       a folded-stack file (--folded), or a JSONL access log \
       (--access-log)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~doc ~docv:"FILE")
  in
  let format_arg =
    let doc =
      "Artifact format: 'chrome', 'folded', 'access', or 'auto' (detect: \
       whole-file JSON object is a Chrome trace, line-wise JSON objects \
       are an access log, anything else is folded stacks)."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("auto", `Auto); ("chrome", `Chrome); ("folded", `Folded);
               ("access", `Access) ])
          `Auto
      & info [ "format" ] ~doc ~docv:"FORMAT")
  in
  let action path format =
    let module J = Mfb_util.Json in
    let contents = In_channel.with_open_text path In_channel.input_all in
    let detect () =
      if String.trim contents = "" then `Folded
      else begin
        let first_line =
          match nonempty_lines contents with
          | (_, l) :: _ -> String.trim l
          | [] -> ""
        in
        if first_line <> "" && first_line.[0] = '{' then
          match J.of_string contents with
          | Ok doc when J.member "traceEvents" doc <> None -> `Chrome
          | _ -> `Access
        else `Folded
      end
    in
    let resolved =
      match format with
      | `Auto -> detect ()
      | `Chrome -> `Chrome
      | `Folded -> `Folded
      | `Access -> `Access
    in
    match resolved with
    | `Chrome -> validate_chrome path contents
    | `Folded -> validate_folded path contents
    | `Access -> validate_access path contents
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate an observability artifact — a Chrome trace_event JSON \
          file, folded flamegraph stacks, or a JSONL access log — and \
          print a summary.  Malformed input is reported with one error \
          per offending line.")
    Term.(ret (const action $ file_arg $ format_arg))

(* --- dot (Graphviz export) --- *)

let dot_cmd =
  let action benchmark input =
    match resolve_instance ~benchmark ~input ~alloc:None with
    | Error msg -> `Error (false, msg)
    | Ok { graph; _ } ->
      print_string (Mfb_bioassay.Seq_graph.to_dot graph);
      `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the sequencing graph in Graphviz dot format.")
    Term.(ret (const action $ benchmark_arg $ input_arg))

(* --- worker --- *)

let fault_plan_arg =
  let doc =
    "JSON fault-injection plan (see lib/cluster/fault.mli).  Faults are \
     keyed by (worker slot, per-process job index), so replays from the \
     same plan are bit-for-bit reproducible."
  in
  Arg.(
    value
    & opt (some file) None
    & info [ "fault-plan" ] ~doc ~docv:"FILE")

let worker_cmd =
  let index_arg =
    let doc = "Fleet slot index of this worker (set by the supervisor)." in
    Arg.(value & opt int 0 & info [ "index" ] ~doc ~docv:"N")
  in
  let vclock_arg =
    let doc =
      "Freeze the per-request telemetry clock at 0, so span trees \
       shipped back for traced submits are deterministic (set by \
       'serve' unless it runs with --wall-clock)."
    in
    Arg.(value & flag & info [ "vclock" ] ~doc)
  in
  let action index vclock fault_plan tc seed sa_restarts backend exact_fuel =
    let fault =
      match fault_plan with
      | None -> Ok Mfb_cluster.Fault.empty
      | Some path -> Mfb_cluster.Fault.of_file path
    in
    match fault with
    | Error msg -> `Error (false, msg)
    | Ok fault ->
      Mfb_cluster.Worker_main.run ~fault ~index ~vclock
        ~config:(config_of ~sa_restarts ~backend ~exact_fuel tc seed)
        stdin stdout;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one fleet worker: answer submit/stats/shutdown protocol \
          lines on stdin with one response line each on stdout.  Spawned \
          by 'serve --fleet N'; base config flags must match the \
          dispatching server's so answers are byte-identical to \
          in-process synthesis.")
    Term.(
      ret
        (const action $ index_arg $ vclock_arg $ fault_plan_arg $ tc_arg
       $ seed_arg $ sa_restarts_arg $ backend_arg $ exact_fuel_arg))

(* --- serve --- *)

let serve_cmd =
  let cache_size_arg =
    let doc =
      "Capacity of the content-addressed result cache in entries; 0 \
       disables caching."
    in
    Arg.(value & opt int 128 & info [ "cache-size" ] ~doc ~docv:"N")
  in
  let repair_cache_arg =
    let doc =
      "Full synthesis results retained for warm-start repair requests, \
       most-recently-used first; 0 disables retention, so every repair \
       re-synthesises cold.  The repair report bytes are identical \
       either way — only latency differs."
    in
    Arg.(value & opt int 8 & info [ "repair-cache" ] ~doc ~docv:"N")
  in
  let similarity_arg =
    let doc =
      "Enable the similarity cache: a submission within fingerprint edit \
       distance 8 of a previously computed one (a single-op edit \
       typically costs 2-6) is warm-started from its solution (cached \
       placement reused, invalidated transports re-routed via the repair \
       ladder) instead of synthesised cold, unless the warm makespan \
       exceeds 1.25 x the cold lower bound.  Near-hit payloads are \
       deterministic — identical across --jobs values, transports and \
       fleet sizes — but generally differ from cold payloads, so the \
       feature is opt-in."
    in
    Arg.(value & flag & info [ "similarity" ] ~doc)
  in
  let queue_depth_arg =
    let doc =
      "Admission-control bound: at most $(docv) jobs may wait in the queue; \
       a submission beyond that displaces a strictly lower-priority job or \
       is rejected."
    in
    Arg.(value & opt positive_int 64 & info [ "queue-depth" ] ~doc ~docv:"N")
  in
  let batch_arg =
    let doc = "Jobs dispatched per batch (one virtual tick per batch)." in
    Arg.(value & opt positive_int 8 & info [ "batch" ] ~doc ~docv:"N")
  in
  let serve_jobs_arg =
    let doc =
      "Worker domains for batch synthesis.  Responses are bit-for-bit \
       identical for every value."
    in
    Arg.(value & opt positive_int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")
  in
  let fleet_arg =
    let doc =
      "Dispatch batches to $(docv) supervised worker processes instead of \
       in-process domains; 0 (the default) keeps everything in-process.  \
       Response payloads are byte-identical for every fleet size — worker \
       crashes, stalls and garbage are retried on another worker or \
       degraded back to in-process synthesis."
    in
    Arg.(value & opt int 0 & info [ "fleet" ] ~doc ~docv:"N")
  in
  let worker_timeout_arg =
    let doc = "Per-job worker response deadline in seconds." in
    Arg.(
      value & opt float 30.0 & info [ "worker-timeout" ] ~doc ~docv:"SECONDS")
  in
  let max_retries_arg =
    let doc =
      "Extra dispatch attempts per job before degrading to in-process \
       synthesis."
    in
    Arg.(value & opt int 2 & info [ "max-retries" ] ~doc ~docv:"N")
  in
  let worker_bin_arg =
    let doc =
      "Executable spawned for fleet workers (defaults to this binary)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-bin" ] ~doc ~docv:"PATH")
  in
  let access_log_arg =
    let doc =
      "Write one JSONL access-log record per finished request to $(docv) \
       (request id, cache key prefix, backend, outcome, queue/compute/\
       total latency, fleet attribution).  Under the default virtual \
       clock the log bytes are identical for every --jobs value and for \
       --fleet 0 vs --fleet N (modulo the optional 'fleet' subobject)."
    in
    Arg.(value & opt (some string) None & info [ "access-log" ] ~doc ~docv:"FILE")
  in
  let slow_ms_arg =
    let doc =
      "Latency threshold at or above which an access-log record embeds \
       the request's full span tree (units: virtual ticks, or \
       milliseconds with --wall-clock)."
    in
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~doc ~docv:"T")
  in
  let serve_trace_arg =
    let doc =
      "Record request-scoped telemetry and write a Chrome trace_event \
       JSON file to $(docv) on shutdown — one track per request holding \
       its merged distributed trace (queue wait, compute, worker-side \
       spans, retries)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let serve_folded_arg =
    let doc =
      "Record request-scoped telemetry and write folded flamegraph \
       stacks to $(docv) on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~doc ~docv:"FILE")
  in
  let wall_clock_arg =
    let doc =
      "Measure request latency in wall milliseconds instead of virtual \
       ticks.  Latency histograms and traces stop being deterministic; \
       use for real load measurements (perfbench's serving workloads \
       do)."
    in
    Arg.(value & flag & info [ "wall-clock" ] ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve the line protocol on TCP port $(docv) instead of \
       stdin/stdout: one event loop, many concurrent client \
       connections, request lines handled in global arrival order so \
       responses, access-log bytes and cache behaviour match the stdio \
       path exactly.  Port 0 binds an ephemeral port (pair with \
       --port-file)."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~doc ~docv:"PORT")
  in
  let port_file_arg =
    let doc =
      "With --tcp, write the bound port number to $(docv) once \
       listening — the startup handshake for scripts using --tcp 0."
    in
    Arg.(
      value & opt (some string) None & info [ "port-file" ] ~doc ~docv:"FILE")
  in
  let max_conns_arg =
    let doc =
      "With --tcp, accept at most $(docv) simultaneous connections; \
       further connectors wait in the kernel backlog."
    in
    Arg.(value & opt positive_int 64 & info [ "max-conns" ] ~doc ~docv:"N")
  in
  let action jobs cache_size repair_cache similarity queue_depth batch fleet
      fault_plan worker_timeout max_retries worker_bin access_log slow_ms
      trace folded wall_clock tcp port_file max_conns tc seed sa_restarts
      backend exact_fuel =
    if cache_size < 0 then
      `Error (false, "--cache-size must be non-negative")
    else if repair_cache < 0 then
      `Error (false, "--repair-cache must be non-negative")
    else if fleet < 0 then `Error (false, "--fleet must be non-negative")
    else if max_retries < 0 then
      `Error (false, "--max-retries must be non-negative")
    else if (match tcp with Some p -> p < 0 || p > 65535 | None -> false)
    then `Error (false, "--tcp expects a port in 0..65535")
    else begin
      let access_oc = Option.map open_out access_log in
      let base_cfg =
        {
          Mfb_server.Server.default_config with
          jobs;
          cache_capacity = cache_size;
          repair_cache;
          similarity;
          queue_depth;
          batch;
          flow_config = config_of ~sa_restarts ~backend ~exact_fuel tc seed;
          clock = (if wall_clock then `Wall else `Virtual);
          access_log = access_oc;
          slow_threshold = slow_ms;
        }
      in
      (* Same server, two transports: the stdio loop, or the select
         loop multiplexing many connections through it.  The sink's
         clock reads the server's virtual tick, so every span
         timestamp — including worker spans grafted after the fact — is
         a pure function of the request script. *)
      let serve_with server =
        let clock =
          if wall_clock then None
          else
            Some
              (fun () -> float_of_int (Mfb_server.Server.current_tick server))
        in
        Fun.protect
          ~finally:(fun () -> Option.iter close_out access_oc)
          (fun () ->
            with_telemetry ?clock ~verbose:false ~trace ?folded ~metrics:false
              (fun () ->
                match tcp with
                | None ->
                  Mfb_net.Listener.run_channels
                    ~stop:(fun () -> Mfb_server.Server.shutting_down server)
                    (Mfb_server.Server.handle_line server)
                    stdin stdout
                | Some port ->
                  Mfb_net.Listener.run
                    {
                      Mfb_net.Listener.default_config with
                      port;
                      max_conns;
                      port_file;
                    }
                    server))
      in
      if fleet = 0 then begin
        serve_with (Mfb_server.Server.create base_cfg);
        `Ok ()
      end
      else begin
        let bin =
          match worker_bin with Some p -> p | None -> Sys.executable_name
        in
        (* Workers must resolve submissions against the same base config
           as the server, or answers would diverge from --fleet 0. *)
        let worker_argv slot =
          Array.of_list
            ([ bin; "worker"; "--index"; string_of_int slot;
               "--tc"; Printf.sprintf "%.17g" tc;
               "--seed"; string_of_int seed;
               "--sa-restarts"; string_of_int sa_restarts;
               "--backend"; Mfb_schedule.Portfolio.backend_to_string backend;
               "--exact-fuel"; string_of_int exact_fuel ]
            @ (if wall_clock then [] else [ "--vclock" ])
            @ (match fault_plan with
               | None -> []
               | Some path -> [ "--fault-plan"; path ]))
        in
        let cluster =
          Mfb_cluster.Cluster.create
            {
              (Mfb_cluster.Cluster.default_config ~worker_argv ~size:fleet) with
              dispatch =
                {
                  Mfb_cluster.Dispatcher.default_config with
                  timeout = worker_timeout;
                  max_retries;
                };
            }
        in
        let cfg =
          {
            base_cfg with
            dispatch = Some (Mfb_cluster.Cluster.dispatch cluster);
            extra_series = Some (fun () -> Mfb_cluster.Cluster.series cluster);
          }
        in
        Fun.protect
          ~finally:(fun () -> Mfb_cluster.Cluster.stop cluster)
          (fun () -> serve_with (Mfb_server.Server.create cfg));
        `Ok ()
      end
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the synthesis service: line-delimited JSON requests on stdin \
          (submit/status/result/stats/shutdown), one JSON response per \
          line on stdout.  Structurally identical requests are answered \
          from a content-addressed result cache; queued jobs run in \
          deterministic batches under admission control.  With --fleet N \
          batches are dispatched to supervised worker processes with \
          automatic respawn, retry and in-process degradation.  See \
          lib/server/protocol.mli for the request format.")
    Term.(
      ret
        (const action $ serve_jobs_arg $ cache_size_arg $ repair_cache_arg
       $ similarity_arg $ queue_depth_arg $ batch_arg $ fleet_arg
       $ fault_plan_arg $ worker_timeout_arg $ max_retries_arg
       $ worker_bin_arg $ access_log_arg $ slow_ms_arg $ serve_trace_arg
       $ serve_folded_arg $ wall_clock_arg $ tcp_arg $ port_file_arg
       $ max_conns_arg $ tc_arg $ seed_arg $ sa_restarts_arg $ backend_arg
       $ exact_fuel_arg))

(* --- repair --- *)

let repair_cmd =
  let module Defect = Mfb_repair.Defect in
  let module Plan = Mfb_repair.Plan in
  let defect_arg =
    let doc = "Defective channel cell $(docv) (repeatable)." in
    Arg.(value & opt_all string [] & info [ "defect" ] ~doc ~docv:"X,Y")
  in
  let component_arg =
    let doc = "Dead component site $(docv) (repeatable)." in
    Arg.(value & opt_all int [] & info [ "dead-component" ] ~doc ~docv:"ID")
  in
  let plan_arg =
    let doc =
      "Load the defect plan from JSON $(docv) (see lib/repair/defect.mli \
       for the format; the chip-fault analogue of serve's --fault-plan)."
    in
    Arg.(
      value & opt (some string) None & info [ "defect-plan" ] ~doc ~docv:"FILE")
  in
  let model_arg =
    let doc =
      "Seeded defect model: 'single' (one channel cell), 'cluster' (a \
       Manhattan-radius debris field), 'progressive' (cells failing on \
       consecutive virtual ticks) or 'component' (one dead component \
       site).  The plan is a pure function of (--defect-seed, chip)."
    in
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("single", `Single); ("cluster", `Cluster);
                  ("progressive", `Progressive); ("component", `Component) ]))
          None
      & info [ "defect-model" ] ~doc ~docv:"MODEL")
  in
  let dseed_arg =
    let doc = "Seed of the defect model." in
    Arg.(value & opt int 0 & info [ "defect-seed" ] ~doc ~docv:"N")
  in
  let radius_arg =
    let doc = "Manhattan radius of the 'cluster' model." in
    Arg.(value & opt int 1 & info [ "radius" ] ~doc ~docv:"R")
  in
  let count_arg =
    let doc = "Cells failed by the 'progressive' model." in
    Arg.(value & opt positive_int 3 & info [ "count" ] ~doc ~docv:"N")
  in
  let tick_arg =
    let doc =
      "Repair only the defects visible at virtual tick $(docv) (default: \
       the whole plan)."
    in
    Arg.(value & opt (some int) None & info [ "tick" ] ~doc ~docv:"T")
  in
  let save_plan_arg =
    let doc = "Write the resolved defect plan to JSON $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "save-plan" ] ~doc ~docv:"FILE")
  in
  let parse_cell s =
    match List.map int_of_string_opt (String.split_on_char ',' s) with
    | [ Some x; Some y ] -> Ok (x, y)
    | _ -> Error (Printf.sprintf "cannot parse defect cell %S (want X,Y)" s)
  in
  let print_report (r : Plan.report) ~json =
    if json then
      print_endline
        (Mfb_util.Json.to_string ~indent:2 (Plan.report_to_json r))
    else begin
      Printf.printf "defects:   %s\n"
        (String.concat " " (List.map Defect.target_to_string r.targets));
      Printf.printf "rung:      %s\n"
        (match r.rung with None -> "none (nothing affected)"
                         | Some rung -> Plan.rung_name rung);
      Printf.printf
        "ripped up %d  rerouted %d (%d delayed)  rebound %d  fallbacks %d  \
         failed %d\n"
        r.ripped_up (r.rerouted + r.rerouted_delayed) r.rerouted_delayed
        r.rebound r.fallbacks r.failed;
      Printf.printf "makespan:  %.2f -> %.2f s (%+.2f)\n" r.makespan_before
        r.makespan_after
        (r.makespan_after -. r.makespan_before);
      Printf.printf "survived:  %s\n" (if r.survived then "yes" else "no")
    end
  in
  let action verbose benchmark input alloc tc seed sa_restarts backend
      exact_fuel jobs cells components plan_file model dseed radius count
      tick save_plan json trace folded metrics =
    setup_logs verbose;
    match resolve_instance ~benchmark ~input ~alloc with
    | Error msg -> `Error (false, msg)
    | Ok inst ->
      let config = config_of ~sa_restarts ~backend ~exact_fuel tc seed in
      let explicit_plan () =
        let parsed =
          List.fold_left
            (fun acc s ->
              match (acc, parse_cell s) with
              | Error _, _ -> acc
              | Ok _, Error e -> Error e
              | Ok l, Ok c ->
                Ok ({ Defect.tick = 0; target = Defect.Cell c } :: l))
            (Ok []) cells
        in
        Stdlib.Result.map
          (fun l ->
            List.rev l
            @ List.map
                (fun i -> { Defect.tick = 0; target = Defect.Component i })
                components)
          parsed
      in
      let outcome =
        with_telemetry ~verbose ~trace ?folded ~metrics (fun () ->
            let r =
              Mfb_core.Flow.run ~config ~jobs inst.graph inst.allocation
            in
            (* the seeded models draw from the synthesized chip, so the
               plan can only be resolved after synthesis *)
            let plan =
              match (plan_file, model) with
              | Some _, Some _ ->
                Error "use either --defect-plan or --defect-model, not both"
              | Some path, None -> Defect.of_file path
              | None, Some m ->
                if cells <> [] || components <> [] then
                  Error
                    "--defect-model replaces --defect/--dead-component; \
                     use one or the other"
                else
                  Ok
                    (match m with
                     | `Single -> Defect.single_cell ~seed:dseed r.chip
                     | `Cluster -> Defect.clustered ~seed:dseed ~radius r.chip
                     | `Progressive ->
                       Defect.progressive ~seed:dseed ~count r.chip
                     | `Component -> Defect.component_fault ~seed:dseed r.chip)
              | None, None -> explicit_plan ()
            in
            match plan with
            | Error e -> Error e
            | Ok plan ->
              (match Defect.check r.chip plan with
               | Error e -> Error e
               | Ok () ->
                 let targets =
                   match tick with
                   | None -> Defect.targets plan
                   | Some t -> Defect.upto plan ~tick:t
                 in
                 if targets = [] then
                   Error
                     "empty defect set; give --defect X,Y, --dead-component \
                      ID, --defect-plan FILE or --defect-model MODEL"
                 else begin
                   (match save_plan with
                    | Some path ->
                      Defect.to_file path plan;
                      Printf.eprintf "wrote %s\n" path
                    | None -> ());
                   let o = Plan.repair ~config r ~defects:targets in
                   let audit =
                     if o.report.survived then
                       Plan.verify ~config ~defects:targets o
                     else []
                   in
                   Ok (o, audit)
                 end))
      in
      (match outcome with
       | Error msg -> `Error (false, msg)
       | Ok (_, (_ :: _ as audit)) ->
         `Error
           ( false,
             "repair produced an illegal result:\n  "
             ^ String.concat "\n  " audit )
       | Ok (o, []) ->
         print_report o.report ~json;
         `Ok ())
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Synthesise a benchmark (or assay file), then repair it around a \
          set of chip defects — explicit cells/components, a JSON defect \
          plan, or a seeded defect model — escalating through \
          reroute-in-window, bounded-delay reroute, component re-binding \
          and a full re-route fallback.  The report is byte-identical for \
          every --jobs value; a surviving repair is legality-audited \
          before it is reported.")
    Term.(
      ret
        (const action $ verbose_arg $ benchmark_arg $ input_arg $ alloc_arg
       $ tc_arg $ seed_arg $ sa_restarts_arg $ backend_arg $ exact_fuel_arg
       $ jobs_arg $ defect_arg $ component_arg $ plan_arg $ model_arg
       $ dseed_arg $ radius_arg $ count_arg $ tick_arg $ save_plan_arg
       $ json_arg $ trace_arg $ folded_arg $ metrics_arg))

(* --- client --- *)

let client_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~doc:"Server address." ~docv:"HOST")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~doc:"Server TCP port." ~docv:"PORT")
  in
  let port_file_arg =
    let doc =
      "Poll $(docv) for the server's port (written by 'serve --tcp 0 \
       --port-file') instead of naming it with --port."
    in
    Arg.(
      value & opt (some string) None & info [ "port-file" ] ~doc ~docv:"FILE")
  in
  let timeout_arg =
    let doc = "How long to wait for --port-file to appear, seconds." in
    Arg.(
      value & opt float 30.0 & info [ "connect-timeout" ] ~doc ~docv:"SECONDS")
  in
  let action host port port_file timeout =
    let port =
      match (port, port_file) with
      | Some p, _ -> Ok p
      | None, Some f -> Mfb_net.Tcp_client.wait_port_file ~timeout f
      | None, None -> Error "one of --port or --port-file is required"
    in
    match port with
    | Error e -> `Error (false, e)
    | Ok port ->
      (match Mfb_net.Tcp_client.connect_fd ~host ~port () with
       | exception Unix.Unix_error (e, _, _) ->
         `Error
           ( false,
             Printf.sprintf "connect %s:%d: %s" host port
               (Unix.error_message e) )
       | fd ->
         let to_srv = Unix.out_channel_of_descr fd in
         let from_srv = Unix.in_channel_of_descr fd in
         (* Lockstep: the server answers every non-blank, non-comment
            line with exactly one line, so a plain read-per-write loop
            is the whole protocol. *)
         let rec loop () =
           match In_channel.input_line stdin with
           | None -> `Ok ()
           | Some line ->
             let trimmed = String.trim line in
             if trimmed = "" || trimmed.[0] = '#' then loop ()
             else begin
               match
                 output_string to_srv line;
                 output_char to_srv '\n';
                 flush to_srv;
                 In_channel.input_line from_srv
               with
               | Some resp ->
                 print_endline resp;
                 loop ()
               | None | (exception Sys_error _) ->
                 `Error (false, "connection closed by server")
             end
         in
         let result = loop () in
         (try Unix.close fd with Unix.Unix_error _ -> ());
         result)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Connect to a 'serve --tcp' listener and relay line-JSON \
          requests from stdin, one response line to stdout per request \
          — the stdio serve experience over a socket.")
    Term.(
      ret (const action $ host_arg $ port_arg $ port_file_arg $ timeout_arg))

let () =
  let doc =
    "Physical synthesis of flow-based microfluidic biochips with distributed \
     channel storage (DATE 2019 reproduction)"
  in
  let info = Cmd.info "dcsa-synth" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; compare_cmd; synth_cmd; explore_cmd; info_cmd;
            control_cmd; dot_cmd; trace_cmd; repair_cmd; serve_cmd;
            worker_cmd; client_cmd ]))
