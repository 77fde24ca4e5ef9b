(* Tests for the bioassay model: fluids, operations, sequencing graphs,
   real-life benchmarks and the synthetic generator. *)

module Fluid = Mfb_bioassay.Fluid
module Operation = Mfb_bioassay.Operation
module Seq_graph = Mfb_bioassay.Seq_graph
module Benchmarks = Mfb_bioassay.Benchmarks
module Synthetic = Mfb_bioassay.Synthetic

let check_float = Alcotest.(check (float 1e-6))

let qtest ?(count = 200) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

(* --- Fluid --- *)

let test_fluid_make_invalid () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Fluid.make: diffusion must be positive and finite")
    (fun () -> ignore (Fluid.make ~name:"x" ~diffusion:0.));
  Alcotest.check_raises "nan"
    (Invalid_argument "Fluid.make: diffusion must be positive and finite")
    (fun () -> ignore (Fluid.make ~name:"x" ~diffusion:Float.nan))

let test_wash_anchors () =
  (* Paper §II-B: 1e-5 cm²/s -> 0.2 s; 5e-8 cm²/s -> 6 s. *)
  Alcotest.(check (float 1e-3)) "small molecule" 0.2
    (Fluid.wash_time_of_diffusion 1e-5);
  Alcotest.(check (float 1e-3)) "virus-scale" 6.0
    (Fluid.wash_time_of_diffusion 5e-8)

let test_wash_clamps () =
  check_float "lower clamp" 0.2 (Fluid.wash_time_of_diffusion 1e-2);
  check_float "upper clamp" 12.0 (Fluid.wash_time_of_diffusion 1e-15)

let test_wash_invalid () =
  Alcotest.check_raises "zero"
    (Invalid_argument
       "Fluid.wash_time_of_diffusion: diffusion must be positive")
    (fun () -> ignore (Fluid.wash_time_of_diffusion 0.))

let test_wash_override () =
  let f = Fluid.make ~name:"tmv" ~diffusion:5e-8 in
  Alcotest.(check (float 1e-3)) "model value" 6.0 (Fluid.wash_time f);
  let pinned = Fluid.with_wash_time f 6.5 in
  Alcotest.(check (float 1e-12)) "pinned value" 6.5 (Fluid.wash_time pinned);
  Alcotest.(check bool) "distinct from unpinned" false
    (Fluid.equal f pinned);
  Alcotest.check_raises "invalid override"
    (Invalid_argument
       "Fluid.with_wash_time: wash time must be positive and finite")
    (fun () -> ignore (Fluid.with_wash_time f 0.))

let test_palette_distinct () =
  let names =
    Array.to_list (Array.map (fun (f : Fluid.t) -> f.name) Fluid.palette)
  in
  Alcotest.(check int) "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_of_palette_wraps () =
  let n = Array.length Fluid.palette in
  Alcotest.(check bool) "wraps" true
    (Fluid.equal (Fluid.of_palette 0) (Fluid.of_palette n));
  Alcotest.(check bool) "negative ok" true
    (Fluid.equal (Fluid.of_palette (-1)) (Fluid.of_palette (n - 1)))

let prop_wash_monotone =
  qtest "wash time non-increasing in diffusion"
    QCheck2.Gen.(pair (float_range 1e-12 1e-3) (float_range 1e-12 1e-3))
    (fun (d1, d2) ->
      let lo = Float.min d1 d2 and hi = Float.max d1 d2 in
      Fluid.wash_time_of_diffusion lo >= Fluid.wash_time_of_diffusion hi -. 1e-9)

let prop_wash_in_range =
  qtest "wash time within clamp range"
    QCheck2.Gen.(float_range 1e-12 1e-3)
    (fun d ->
      let w = Fluid.wash_time_of_diffusion d in
      0.2 -. 1e-9 <= w && w <= 12.0 +. 1e-9)

(* --- Operation --- *)

let test_operation_invalid () =
  let output = Fluid.of_palette 0 in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Operation.make: negative id") (fun () ->
      ignore (Operation.make ~id:(-1) ~kind:Mix ~duration:1. ~output));
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Operation.make: duration must be positive") (fun () ->
      ignore (Operation.make ~id:0 ~kind:Mix ~duration:0. ~output))

let test_kind_index_roundtrip () =
  Array.iter
    (fun kind ->
      Alcotest.(check bool) "roundtrip" true
        (Operation.kind_of_index (Operation.kind_index kind) = kind))
    [| Operation.Mix; Heat; Filter; Detect |];
  Alcotest.check_raises "bad index"
    (Invalid_argument "Operation.kind_of_index: 4") (fun () ->
      ignore (Operation.kind_of_index 4))

let test_operation_wash () =
  let output = Fluid.make ~name:"x" ~diffusion:5e-8 in
  let op = Operation.make ~id:0 ~kind:Heat ~duration:2. ~output in
  Alcotest.(check (float 1e-3)) "delegates to fluid" 6.0
    (Operation.wash_time op)

(* --- Seq_graph --- *)

let mk_ops n =
  List.init n (fun id ->
      Operation.make ~id ~kind:Mix ~duration:5. ~output:(Fluid.of_palette id))

let test_graph_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Seq_graph.create: no operations") (fun () ->
      ignore (Seq_graph.create ~name:"g" ~ops:[] ~edges:[]));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Seq_graph.create: self-loop on 0") (fun () ->
      ignore (Seq_graph.create ~name:"g" ~ops:(mk_ops 2) ~edges:[ (0, 0) ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Seq_graph.create: duplicate edge (0, 1)") (fun () ->
      ignore
        (Seq_graph.create ~name:"g" ~ops:(mk_ops 2) ~edges:[ (0, 1); (0, 1) ]));
  Alcotest.check_raises "bad edge"
    (Invalid_argument "Seq_graph.create: bad edge (0, 5)") (fun () ->
      ignore (Seq_graph.create ~name:"g" ~ops:(mk_ops 2) ~edges:[ (0, 5) ]));
  Alcotest.check_raises "cycle"
    (Invalid_argument "Seq_graph.create: graph contains a cycle") (fun () ->
      ignore
        (Seq_graph.create ~name:"g" ~ops:(mk_ops 3)
           ~edges:[ (0, 1); (1, 2); (2, 0) ]))

let test_graph_misnumbered_ops () =
  let ops =
    [ Operation.make ~id:1 ~kind:Mix ~duration:1. ~output:(Fluid.of_palette 0) ]
  in
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Seq_graph.create: op at position 0 has id 1") (fun () ->
      ignore (Seq_graph.create ~name:"g" ~ops ~edges:[]))

let diamond () =
  Seq_graph.create ~name:"diamond" ~ops:(mk_ops 4)
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_graph_adjacency () =
  let g = diamond () in
  Alcotest.(check (list int)) "parents of 3" [ 1; 2 ]
    (List.sort compare (Seq_graph.parents g 3));
  Alcotest.(check (list int)) "children of 0" [ 1; 2 ]
    (List.sort compare (Seq_graph.children g 0));
  Alcotest.(check (list int)) "sources" [ 0 ] (Seq_graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Seq_graph.sinks g);
  Alcotest.(check int) "edges" 4 (Seq_graph.n_edges g)

let test_graph_topo () =
  let g = diamond () in
  let order = Seq_graph.topo_order g in
  Alcotest.(check int) "covers all" 4 (List.length order);
  let pos = Hashtbl.create 4 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool) "edge respects order" true
        (Hashtbl.find pos src < Hashtbl.find pos dst))
    (Seq_graph.edges g)

let test_graph_priorities_fig2 () =
  (* Paper §IV-A: priority of o1 in Fig. 2(a) is 21 with tc = 2. *)
  let g = Benchmarks.fig2_example () in
  let prio = Seq_graph.priorities g ~tc:2. in
  check_float "o1 priority" 21. prio.(0)

let test_graph_priorities_diamond () =
  let g = diamond () in
  let prio = Seq_graph.priorities g ~tc:2. in
  check_float "sink is own duration" 5. prio.(3);
  check_float "middle" 12. prio.(1);
  check_float "source" 19. prio.(0);
  check_float "critical path" 19. (Seq_graph.critical_path g ~tc:2.)

let test_graph_kind_counts () =
  let g = Benchmarks.ivd () in
  let counts = Seq_graph.kind_counts g in
  Alcotest.(check (list int)) "ivd kinds" [ 6; 0; 0; 6 ]
    (Array.to_list counts)

let test_graph_depth_width () =
  let g = diamond () in
  Alcotest.(check int) "diamond depth" 3 (Seq_graph.depth g);
  Alcotest.(check (list int)) "diamond profile" [ 1; 2; 1 ]
    (Seq_graph.width_profile g);
  let pcr = Benchmarks.pcr () in
  Alcotest.(check int) "pcr tree depth" 3 (Seq_graph.depth pcr);
  Alcotest.(check (list int)) "pcr profile" [ 4; 2; 1 ]
    (Seq_graph.width_profile pcr)

let test_graph_to_dot () =
  let g = diamond () in
  let dot = Seq_graph.to_dot g in
  Alcotest.(check bool) "digraph header" true
    (Testkit.contains dot "digraph \"diamond\"");
  Alcotest.(check bool) "all vertices" true
    (List.for_all (fun i -> Testkit.contains dot (Printf.sprintf "o%d [" i))
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "edges" true (Testkit.contains dot "o0 -> o1;");
  Alcotest.(check bool) "closing brace" true (Testkit.contains dot "}")

let test_graph_op_bounds () =
  let g = diamond () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Seq_graph.op: id 9 out of range") (fun () ->
      ignore (Seq_graph.op g 9))

let synthetic_gen =
  QCheck2.Gen.(
    map2
      (fun n seed ->
        Synthetic.generate ~name:"prop"
          { Synthetic.default_params with n_ops = n + 2; seed })
      (int_bound 40) int)

let prop_priorities_dominate_children =
  qtest ~count:60 "priority >= child priority + tc + duration" synthetic_gen
    (fun g ->
      let tc = 2. in
      let prio = Seq_graph.priorities g ~tc in
      List.for_all
        (fun (src, dst) ->
          prio.(src)
          >= (Seq_graph.op g src).duration +. tc +. prio.(dst) -. 1e-9)
        (Seq_graph.edges g))

let prop_topo_valid =
  qtest ~count:60 "topological order respects edges" synthetic_gen (fun g ->
      let pos = Hashtbl.create 16 in
      List.iteri (fun i v -> Hashtbl.replace pos v i) (Seq_graph.topo_order g);
      List.for_all
        (fun (src, dst) -> Hashtbl.find pos src < Hashtbl.find pos dst)
        (Seq_graph.edges g))

(* --- Benchmarks --- *)

let test_benchmark_sizes () =
  (* Operation counts of the paper's Table I, column 2. *)
  Alcotest.(check int) "PCR" 7 (Seq_graph.n_ops (Benchmarks.pcr ()));
  Alcotest.(check int) "IVD" 12 (Seq_graph.n_ops (Benchmarks.ivd ()));
  Alcotest.(check int) "CPA" 55 (Seq_graph.n_ops (Benchmarks.cpa ()));
  Alcotest.(check int) "fig2" 10 (Seq_graph.n_ops (Benchmarks.fig2_example ()))

let test_pcr_structure () =
  let g = Benchmarks.pcr () in
  Alcotest.(check (list int)) "all mixes" [ 7; 0; 0; 0 ]
    (Array.to_list (Seq_graph.kind_counts g));
  Alcotest.(check (list int)) "single sink" [ 6 ] (Seq_graph.sinks g);
  Alcotest.(check int) "binary-tree edges" 6 (Seq_graph.n_edges g)

let test_cpa_structure () =
  let g = Benchmarks.cpa () in
  let counts = Seq_graph.kind_counts g in
  Alcotest.(check int) "47 mixes" 47 counts.(0);
  Alcotest.(check int) "8 detects" 8 counts.(3);
  Alcotest.(check int) "8 sinks" 8 (List.length (Seq_graph.sinks g));
  List.iter
    (fun s ->
      Alcotest.(check bool) "sink is detect" true
        ((Seq_graph.op g s).kind = Operation.Detect))
    (Seq_graph.sinks g)

let test_ivd_structure () =
  let g = Benchmarks.ivd () in
  Alcotest.(check int) "6 independent chains" 6
    (List.length (Seq_graph.sources g));
  Alcotest.(check int) "6 sinks" 6 (List.length (Seq_graph.sinks g))

(* --- Synthetic --- *)

let test_synthetic_sizes () =
  (* Table I, rows Synthetic1-4. *)
  Alcotest.(check int) "syn1" 20 (Seq_graph.n_ops (Synthetic.synthetic1 ()));
  Alcotest.(check int) "syn2" 30 (Seq_graph.n_ops (Synthetic.synthetic2 ()));
  Alcotest.(check int) "syn3" 40 (Seq_graph.n_ops (Synthetic.synthetic3 ()));
  Alcotest.(check int) "syn4" 50 (Seq_graph.n_ops (Synthetic.synthetic4 ()))

let test_synthetic_deterministic () =
  let a = Synthetic.synthetic2 () and b = Synthetic.synthetic2 () in
  Alcotest.(check bool) "same edges" true
    (Seq_graph.edges a = Seq_graph.edges b);
  let ops_equal =
    Array.for_all2
      (fun (x : Operation.t) (y : Operation.t) ->
        x.kind = y.kind && x.duration = y.duration
        && Fluid.equal x.output y.output)
      (Seq_graph.ops a) (Seq_graph.ops b)
  in
  Alcotest.(check bool) "same ops" true ops_equal

let test_synthetic_seeds_differ () =
  let a =
    Synthetic.generate ~name:"a" { Synthetic.default_params with seed = 1 }
  in
  let b =
    Synthetic.generate ~name:"b" { Synthetic.default_params with seed = 2 }
  in
  Alcotest.(check bool) "different graphs" true
    (Seq_graph.edges a <> Seq_graph.edges b
    || Seq_graph.ops a <> Seq_graph.ops b)

let test_synthetic_validation () =
  let p = Synthetic.default_params in
  Alcotest.check_raises "too small"
    (Invalid_argument "Synthetic.generate: n_ops < 2") (fun () ->
      ignore (Synthetic.generate ~name:"x" { p with n_ops = 1 }));
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Synthetic.generate: all kind weights are zero")
    (fun () ->
      ignore
        (Synthetic.generate ~name:"x"
           { p with kind_weights = [| 0; 0; 0; 0 |] }));
  Alcotest.check_raises "bad bias"
    (Invalid_argument "Synthetic.generate: same_kind_bias outside [0, 1]")
    (fun () ->
      ignore (Synthetic.generate ~name:"x" { p with same_kind_bias = 1.5 }))

let test_synthetic_zero_weight_absent () =
  let g =
    Synthetic.generate ~name:"nomix"
      { Synthetic.default_params with
        kind_weights = [| 0; 5; 3; 1 |];
        same_kind_bias = 0. }
  in
  Alcotest.(check int) "no mixes" 0 (Seq_graph.kind_counts g).(0)

let prop_synthetic_edges_forward =
  qtest ~count:60 "synthetic edges point to later ids" synthetic_gen (fun g ->
      List.for_all (fun (src, dst) -> src < dst) (Seq_graph.edges g))

let prop_synthetic_connected_non_sources =
  qtest ~count:60 "every non-source has a parent" synthetic_gen (fun g ->
      let sources = Seq_graph.sources g in
      List.for_all
        (fun op -> Seq_graph.parents g op <> [] || List.mem op sources)
        (List.init (Seq_graph.n_ops g) Fun.id))

(* --- Assay_file --- *)

module Assay_file = Mfb_bioassay.Assay_file

let sample_text =
  {|# a small panel
assay "panel"
fluid serum 4e-7
fluid reagent 1e-6
op 0 mix 5.0 serum
op 1 heat 4.0 reagent
op 2 detect 3.0 serum
edge 0 1
edge 1 2
|}

let test_assay_parse () =
  match Assay_file.parse sample_text with
  | Error e -> Alcotest.failf "parse failed: %a" Assay_file.pp_error e
  | Ok g ->
    Alcotest.(check string) "name" "panel" (Seq_graph.name g);
    Alcotest.(check int) "ops" 3 (Seq_graph.n_ops g);
    Alcotest.(check int) "edges" 2 (Seq_graph.n_edges g);
    let o1 = Seq_graph.op g 1 in
    Alcotest.(check bool) "kind" true (o1.kind = Operation.Heat);
    Alcotest.(check (float 1e-12)) "duration" 4.0 o1.duration;
    Alcotest.(check string) "fluid" "reagent" o1.output.Fluid.name

let expect_error ~line text =
  match Assay_file.parse text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check int) "error line" line e.line

let test_assay_errors () =
  expect_error ~line:1 "bogus directive\n";
  expect_error ~line:2 "assay \"x\"\nop 0 grind 1.0 f\n";
  expect_error ~line:2 "assay \"x\"\nop 0 mix oops serum\n";
  expect_error ~line:2 "assay \"x\"\nop 0 mix 1.0 undeclared\n";
  expect_error ~line:3
    "assay \"x\"\nfluid f 1e-6\nfluid f 2e-6\n";
  expect_error ~line:0 "fluid f 1e-6\nop 0 mix 1.0 f\n" (* missing assay *);
  expect_error ~line:3
    "assay \"x\"\nfluid f 1e-6\nop 1 mix 1.0 f\n" (* non-dense id *)

let test_assay_roundtrip_fixed () =
  match Assay_file.parse sample_text with
  | Error e -> Alcotest.failf "parse: %a" Assay_file.pp_error e
  | Ok g ->
    (match Assay_file.parse (Assay_file.to_string g) with
     | Error e -> Alcotest.failf "reparse: %a" Assay_file.pp_error e
     | Ok g' ->
       Alcotest.(check string) "name" (Seq_graph.name g) (Seq_graph.name g');
       Alcotest.(check bool) "edges equal" true
         (List.sort compare (Seq_graph.edges g)
         = List.sort compare (Seq_graph.edges g')))

let test_assay_wash_override_roundtrip () =
  let text =
    "assay \"w\"\nfluid virus 1e-8 6.5\nop 0 mix 3 virus\n"
  in
  match Assay_file.parse text with
  | Error e -> Alcotest.failf "parse: %a" Assay_file.pp_error e
  | Ok g ->
    let op = Seq_graph.op g 0 in
    Alcotest.(check (float 1e-9)) "override parsed" 6.5
      (Fluid.wash_time op.output);
    (match Assay_file.parse (Assay_file.to_string g) with
     | Error e -> Alcotest.failf "reparse: %a" Assay_file.pp_error e
     | Ok g' ->
       Alcotest.(check (float 1e-9)) "override survives round-trip" 6.5
         (Fluid.wash_time (Seq_graph.op g' 0).output))

let test_assay_file_io () =
  let path = Filename.temp_file "assay" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Benchmarks.pcr () in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Assay_file.to_string g));
      match Assay_file.of_file path with
      | Error e -> Alcotest.failf "of_file: %a" Assay_file.pp_error e
      | Ok g' -> Alcotest.(check int) "ops survive" 7 (Seq_graph.n_ops g'));
  match Assay_file.of_file "/nonexistent/assay.txt" with
  | Ok _ -> Alcotest.fail "expected IO error"
  | Error e -> Alcotest.(check int) "io error at line 0" 0 e.line

let prop_assay_roundtrip =
  qtest ~count:40 "serialize/parse round-trips synthetic graphs"
    synthetic_gen
    (fun g ->
      match Assay_file.parse (Assay_file.to_string g) with
      | Error _ -> false
      | Ok g' ->
        Seq_graph.name g = Seq_graph.name g'
        && List.sort compare (Seq_graph.edges g)
           = List.sort compare (Seq_graph.edges g')
        && Array.for_all2
             (fun (a : Operation.t) (b : Operation.t) ->
               a.kind = b.kind
               && Float.abs (a.duration -. b.duration) < 1e-9
               && Fluid.equal a.output b.output)
             (Seq_graph.ops g) (Seq_graph.ops g'))

(* --- Volume --- *)

module Volume = Mfb_bioassay.Volume

let test_volume_chain () =
  (* Single chain: one chamber reaches the sink, all of it dispensed
     into the source. *)
  let g =
    Seq_graph.create ~name:"chain" ~ops:(mk_ops 3)
      ~edges:[ (0, 1); (1, 2) ]
  in
  Alcotest.(check (float 1e-9)) "total reagent" 1.0
    (Volume.total_reagent (Volume.analyse g))

let test_volume_mixer_split () =
  (* A two-input mix delivering one chamber draws half from each
     parent, so the two sources take one chamber between them. *)
  let g =
    Seq_graph.create ~name:"mix2" ~ops:(mk_ops 3)
      ~edges:[ (0, 2); (1, 2) ]
  in
  Alcotest.(check (float 1e-9)) "reagent is one chamber" 1.0
    (Volume.total_reagent (Volume.analyse g))

let test_volume_fanout_batches () =
  (* One source feeding three sinks must produce three chambers. *)
  let g =
    Seq_graph.create ~name:"fan" ~ops:(mk_ops 4)
      ~edges:[ (0, 1); (0, 2); (0, 3) ]
  in
  Alcotest.(check (float 1e-9)) "three chambers of reagent" 3.0
    (Volume.total_reagent (Volume.analyse g))

let test_volume_pcr_tree () =
  (* PCR's balanced binary tree delivers one chamber at the root, split
     in halves down to the leaves: the four leaves take a quarter each,
     and total reagent equals the delivered volume. *)
  let g = Benchmarks.pcr () in
  Alcotest.(check (float 1e-9)) "conservation" 1.0
    (Volume.total_reagent (Volume.analyse g))

let prop_volume_conservation =
  qtest ~count:60 "reagent in = chambers delivered at the sinks"
    synthetic_gen
    (fun g ->
      let v = Volume.analyse g in
      let delivered = float_of_int (List.length (Seq_graph.sinks g)) in
      Float.abs (Volume.total_reagent v -. delivered) < 1e-6)

let suites =
  [
    ( "bioassay.fluid",
      [
        Alcotest.test_case "make invalid" `Quick test_fluid_make_invalid;
        Alcotest.test_case "wash anchors" `Quick test_wash_anchors;
        Alcotest.test_case "wash clamps" `Quick test_wash_clamps;
        Alcotest.test_case "wash invalid" `Quick test_wash_invalid;
        Alcotest.test_case "wash override" `Quick test_wash_override;
        Alcotest.test_case "palette distinct" `Quick test_palette_distinct;
        Alcotest.test_case "of_palette wraps" `Quick test_of_palette_wraps;
        prop_wash_monotone;
        prop_wash_in_range;
      ] );
    ( "bioassay.operation",
      [
        Alcotest.test_case "invalid" `Quick test_operation_invalid;
        Alcotest.test_case "kind index roundtrip" `Quick
          test_kind_index_roundtrip;
        Alcotest.test_case "wash" `Quick test_operation_wash;
      ] );
    ( "bioassay.seq_graph",
      [
        Alcotest.test_case "invalid graphs" `Quick test_graph_invalid;
        Alcotest.test_case "misnumbered ops" `Quick test_graph_misnumbered_ops;
        Alcotest.test_case "adjacency" `Quick test_graph_adjacency;
        Alcotest.test_case "topological order" `Quick test_graph_topo;
        Alcotest.test_case "fig2 priority 21" `Quick test_graph_priorities_fig2;
        Alcotest.test_case "diamond priorities" `Quick
          test_graph_priorities_diamond;
        Alcotest.test_case "kind counts" `Quick test_graph_kind_counts;
        Alcotest.test_case "depth/width" `Quick test_graph_depth_width;
        Alcotest.test_case "to_dot" `Quick test_graph_to_dot;
        Alcotest.test_case "op bounds" `Quick test_graph_op_bounds;
        prop_priorities_dominate_children;
        prop_topo_valid;
      ] );
    ( "bioassay.benchmarks",
      [
        Alcotest.test_case "table-1 sizes" `Quick test_benchmark_sizes;
        Alcotest.test_case "pcr structure" `Quick test_pcr_structure;
        Alcotest.test_case "cpa structure" `Quick test_cpa_structure;
        Alcotest.test_case "ivd structure" `Quick test_ivd_structure;
      ] );
    ( "bioassay.synthetic",
      [
        Alcotest.test_case "table-1 sizes" `Quick test_synthetic_sizes;
        Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_synthetic_seeds_differ;
        Alcotest.test_case "validation" `Quick test_synthetic_validation;
        Alcotest.test_case "zero-weight kind absent" `Quick
          test_synthetic_zero_weight_absent;
        prop_synthetic_edges_forward;
        prop_synthetic_connected_non_sources;
      ] );
    ( "bioassay.volume",
      [
        Alcotest.test_case "chain" `Quick test_volume_chain;
        Alcotest.test_case "mixer split" `Quick test_volume_mixer_split;
        Alcotest.test_case "fan-out batches" `Quick test_volume_fanout_batches;
        Alcotest.test_case "pcr tree" `Quick test_volume_pcr_tree;
        prop_volume_conservation;
      ] );
    ( "bioassay.assay_file",
      [
        Alcotest.test_case "parse" `Quick test_assay_parse;
        Alcotest.test_case "errors with line numbers" `Quick
          test_assay_errors;
        Alcotest.test_case "round-trip" `Quick test_assay_roundtrip_fixed;
        Alcotest.test_case "wash override round-trip" `Quick
          test_assay_wash_override_roundtrip;
        Alcotest.test_case "file io" `Quick test_assay_file_io;
        prop_assay_roundtrip;
      ] );
  ]
