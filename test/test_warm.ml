(* The similarity cache and warm-start path: fingerprint properties
   (relabelling / formatting invariance, edit sensitivity, exact-hit
   agreement with the cache key), the warm-vs-cold differential oracle,
   and the server-level eviction regression (repair cache and result
   cache disagreeing about a similarity candidate). *)

module Json = Mfb_util.Json
module Cache_key = Mfb_server.Cache_key
module Sim_index = Mfb_server.Sim_index
module Server = Mfb_server.Server
module P = Mfb_server.Protocol
module Warm = Mfb_repair.Warm
module Flow = Mfb_core.Flow
module Config = Mfb_core.Config
module Check = Mfb_schedule.Check
module Allocation = Mfb_component.Allocation

let qtest = Test_util.qtest

let parse_assay text =
  match Mfb_bioassay.Assay_file.parse text with
  | Ok g -> g
  | Error e ->
    Alcotest.failf "assay parse: %a" Mfb_bioassay.Assay_file.pp_error e

(* Small annealing schedule: the oracle synthesizes dozens of designs. *)
let cfg =
  let d = Config.default in
  { d with sa = { d.sa with t0 = 200.; i_max = 40 } }

let alloc = Allocation.of_vector (2, 2, 0, 0)

(* --- random assays, rendered with arbitrary labels and line order --- *)

(* A chain of alternating mix/heat ops with a few forward shortcut
   edges.  [render] can apply an id permutation and shuffle the op/edge
   lines, producing a textually different spelling of the same graph. *)
type rand_assay = { durs : int array; extra : (int * int) list }

let kind_of i = if i mod 2 = 0 then "mix" else "heat"
let fluid_of i = if i mod 2 = 0 then "a" else "b"

let mk_assay rng =
  let n = 4 + Random.State.int rng 6 in
  let durs = Array.init n (fun _ -> 3 + Random.State.int rng 7) in
  let extra =
    List.init (Random.State.int rng 3) (fun _ ->
        let i = Random.State.int rng (n - 2) in
        (i, i + 2 + Random.State.int rng (n - i - 2)))
    |> List.sort_uniq compare
  in
  { durs; extra }

let edges_of a =
  List.init (Array.length a.durs - 1) (fun i -> (i, i + 1)) @ a.extra

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let permutation rng n = Array.of_list (shuffle rng (List.init n Fun.id))

let render ?perm ?shuffle_rng a =
  let n = Array.length a.durs in
  let p = match perm with Some p -> p | None -> Array.init n Fun.id in
  let lines =
    List.init n (fun i ->
        Printf.sprintf "op %d %s %d %s" p.(i) (kind_of i) a.durs.(i)
          (fluid_of i))
    @ List.map
        (fun (i, j) -> Printf.sprintf "edge %d %d" p.(i) p.(j))
        (edges_of a)
  in
  let lines =
    match shuffle_rng with None -> lines | Some rng -> shuffle rng lines
  in
  "assay \"rand\"\nfluid a 4e-7\nfluid b 1e-6\n"
  ^ String.concat "\n" lines ^ "\n"

let fp_of text =
  Sim_index.fingerprint ~config:cfg ~graph:(parse_assay text)
    ~allocation:alloc ()

let key_of text =
  Cache_key.make ~config:cfg ~graph:(parse_assay text) ~allocation:alloc ()

(* The distance between two fingerprints, read through [nearest] with
   the candidate alone and no threshold; [None] when incomparable.  With
   one candidate, its key plays no part in the answer. *)
let distance query candidate =
  let key = key_of (render (mk_assay (Random.State.make [| 0 |]))) in
  Option.map
    (fun (_, (), d) -> d)
    (Sim_index.nearest ~threshold:max_int [ (key, (candidate, ())) ] key query)

(* degree of logical op [v]: ops whose radius-1 neighborhood contains
   [v]'s label — its parents and children in the chain + shortcuts *)
let degree a v =
  List.length (List.filter (fun (i, j) -> i = v || j = v) (edges_of a))

(* --- fingerprint properties ------------------------------------------- *)

let test_fp_relabel_invariant =
  qtest ~count:50 "fingerprint invariant to relabelling and formatting"
    QCheck2.Gen.int (fun salt ->
      let rng = Random.State.make [| salt; 0x51 |] in
      let a = mk_assay rng in
      let plain = render a in
      let messy =
        render
          ~perm:(permutation rng (Array.length a.durs))
          ~shuffle_rng:rng a
      in
      match distance (fp_of plain) (fp_of messy) with
      | Some d ->
        d.Sim_index.distance = 0
        && d.Sim_index.changed_ops = []
        && Cache_key.equal (key_of plain) (key_of messy)
      | None -> false)

let test_fp_duration_sensitive =
  qtest ~count:50 "fingerprint sensitive to a duration edit"
    QCheck2.Gen.int (fun salt ->
      let rng = Random.State.make [| salt; 0x52 |] in
      let a = mk_assay rng in
      let v = Random.State.int rng (Array.length a.durs) in
      let edited = { a with durs = Array.copy a.durs } in
      edited.durs.(v) <- a.durs.(v) + 1;
      match distance (fp_of (render edited)) (fp_of (render a)) with
      | Some d ->
        (* only the edited op and its direct neighbors may move *)
        d.Sim_index.distance > 0
        && d.Sim_index.distance <= 2 * (1 + degree a v)
        && List.mem v d.Sim_index.changed_ops
      | None -> false)

let test_fp_structure_sensitive =
  qtest ~count:50 "fingerprint sensitive to a structure edit"
    QCheck2.Gen.int (fun salt ->
      let rng = Random.State.make [| salt; 0x53 |] in
      let a = mk_assay rng in
      let n = Array.length a.durs in
      (* append a leaf op fed by the chain tail *)
      let grown =
        {
          durs = Array.append a.durs [| 5 |];
          extra = a.extra;
        }
      in
      match distance (fp_of (render grown)) (fp_of (render a)) with
      | Some d ->
        d.Sim_index.distance > 0
        && d.Sim_index.added >= 1
        && List.mem n d.Sim_index.changed_ops
      | None -> false)

let test_fp_incomparable_allocations () =
  let a = mk_assay (Random.State.make [| 3 |]) in
  let g = parse_assay (render a) in
  let f1 = Sim_index.fingerprint ~config:cfg ~graph:g ~allocation:alloc () in
  let f2 =
    Sim_index.fingerprint ~config:cfg ~graph:g
      ~allocation:(Allocation.of_vector (3, 1, 0, 0))
      ()
  in
  Alcotest.(check bool) "different alloc incomparable" true
    (distance f1 f2 = None)

let test_nearest_exact_at_distance_zero =
  qtest ~count:25 "nearest returns the exact entry at distance 0"
    QCheck2.Gen.int (fun salt ->
      let rng = Random.State.make [| salt; 0x54 |] in
      let assays = List.init 5 (fun _ -> mk_assay rng) in
      (* newest first, as the server's candidate Lru walks them *)
      let candidates =
        List.rev
          (List.mapi
             (fun i a -> (key_of (render a), (fp_of (render a), i)))
             assays)
      in
      let probe = List.nth assays (Random.State.int rng 5) in
      (* probe with a reformatted spelling of an inserted request *)
      let messy =
        render
          ~perm:(permutation rng (Array.length probe.durs))
          ~shuffle_rng:rng probe
      in
      let key = key_of messy in
      match Sim_index.nearest ~threshold:8 candidates key (fp_of messy) with
      | Some (k, _, d) ->
        (* agrees with a Cache_key exact hit *)
        d.Sim_index.distance = 0 && Cache_key.equal k key
      | None -> false)

(* --- the warm-vs-cold differential oracle ----------------------------- *)

(* For a random assay and a random single edit, a warm start seeded by
   the unedited synthesis must either produce a legal design within
   (1 + delta) of the edited request's cold synthesis, or fall back —
   and the fallback must be counted.  Also checks the quality-gate
   lemma the server relies on: the cold makespan is bounded below by
   the pre-routing schedule makespan. *)
let warm_oracle =
  let delta = 0.25 in
  qtest ~count:12 "warm result legal and within delta of cold"
    QCheck2.Gen.int (fun salt ->
      let rng = Random.State.make [| salt; 0x56 |] in
      let a = mk_assay rng in
      let edited =
        if Random.State.bool rng then begin
          (* duration tweak *)
          let e = { a with durs = Array.copy a.durs } in
          let v = Random.State.int rng (Array.length a.durs) in
          e.durs.(v) <- 3 + ((a.durs.(v) - 3 + 1) mod 7);
          e
        end
        else (* append a leaf op *)
          { a with durs = Array.append a.durs [| 4 |] }
      in
      let g0 = parse_assay (render a)
      and g1 = parse_assay (render edited) in
      let cached = Flow.run ~config:cfg ~jobs:1 g0 alloc in
      Test_util.with_fake_sink (fun sink ->
          match Warm.synthesize ~config:cfg ~cached ~delta g1 alloc with
          | Ok (r, report) ->
            let cold = Flow.run ~config:cfg ~jobs:1 g1 alloc in
            Check.validate ~tc:cfg.tc r.schedule = []
            && r.execution_time <= (cold.execution_time *. (1. +. delta)) +. 1e-9
            && cold.execution_time >= report.Warm.makespan_lb -. 1e-9
            && report.Warm.makespan <= (report.Warm.makespan_lb *. (1. +. delta)) +. 1e-9
            && Mfb_util.Telemetry.counter_total sink ~cat:"warm" "fallbacks" = 0
          | Error reason ->
            String.length reason > 0
            && Mfb_util.Telemetry.counter_total sink ~cat:"warm" "fallbacks" = 1))

let test_warm_distance_zero_replays_bytes () =
  (* A warm start of the *same* request must reproduce the cached
     summary byte for byte — the cold-recompute path after a
     summary-cache eviction depends on it. *)
  let a = mk_assay (Random.State.make [| 11; 0x57 |]) in
  let g = parse_assay (render a) in
  let cached = Flow.run ~config:cfg ~jobs:1 g alloc in
  match Warm.synthesize ~config:cfg ~cached ~delta:0.25 g alloc with
  | Ok (r, report) ->
    Alcotest.(check string) "summary bytes"
      (Json.to_string (Mfb_core.Result.summary_to_json
                         (Mfb_core.Result.summarize cached)))
      (Json.to_string (Mfb_core.Result.summary_to_json
                         (Mfb_core.Result.summarize r)));
    Alcotest.(check int) "nothing rerouted" 0
      (report.Warm.rerouted + report.Warm.rerouted_delayed)
  | Error e -> Alcotest.failf "distance-0 warm start fell back: %s" e

(* --- server eviction regression --------------------------------------- *)

let base_assay =
  "assay \"evict\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 4 b\n\
   op 2 mix 6 a\n\
   edge 0 1\n\
   edge 1 2\n"

(* single-op edit of [base_assay]: op 1's duration 4 -> 6 *)
let edited_assay =
  "assay \"evict\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 mix 5 a\n\
   op 1 heat 6 b\n\
   op 2 mix 6 a\n\
   edge 0 1\n\
   edge 1 2\n"

(* unrelated filler whose computation evicts the base full result from
   a 1-entry repair cache; a different allocation keeps it out of the
   similarity candidate set *)
let filler_assay =
  "assay \"filler\"\n\
   fluid a 4e-7\n\
   fluid b 1e-6\n\
   op 0 heat 3 b\n\
   op 1 mix 7 a\n\
   op 2 heat 5 b\n\
   edge 0 1\n\
   edge 1 2\n"

let submit_assay ?(alloc = (2, 2, 0, 0)) ~id text =
  P.Submit
    {
      id;
      priority = 0;
      deadline = None;
      flow = `Ours;
      spec = P.Assay { text; alloc = Some alloc };
      overrides = P.no_overrides;
      trace = None;
    }

let result_bytes server id =
  match Testkit.call_exn server (P.Result id) with
  | P.Job_result { result; _ } -> Json.to_string result
  | r -> Alcotest.failf "result %s: %s" id (P.response_to_line r)

let warm_server ~repair_cache () =
  Server.create
    {
      Server.default_config with
      cache_capacity = 128;
      repair_cache;
      similarity = true;
    }

let test_eviction_cold_recompute_path () =
  (* Retained seed: base's full result is still in the repair cache
     when the edit arrives — the warm start observes 1 virtual tick. *)
  let s1 = warm_server ~repair_cache:8 () in
  ignore (Testkit.call_exn s1 (submit_assay ~id:"a" base_assay));
  ignore (result_bytes s1 "a");
  ignore (Testkit.call_exn s1 (submit_assay ~id:"b" edited_assay));
  let warm_kept = result_bytes s1 "b" in
  (* Evicted seed: a 1-entry repair cache loses base's full result to
     the filler before the edit arrives.  The similarity index still
     names base as the candidate — the server must re-synthesize the
     seed cold (2 ticks) and produce the *same* warm payload. *)
  let s2 = warm_server ~repair_cache:1 () in
  ignore (Testkit.call_exn s2 (submit_assay ~id:"a" base_assay));
  ignore (result_bytes s2 "a");
  ignore
    (Testkit.call_exn s2
       (submit_assay ~alloc:(3, 1, 0, 0) ~id:"f" filler_assay));
  ignore (result_bytes s2 "f");
  ignore (Testkit.call_exn s2 (submit_assay ~id:"b" edited_assay));
  let warm_evicted = result_bytes s2 "b" in
  Alcotest.(check string) "payload survives seed eviction" warm_kept
    warm_evicted;
  Alcotest.(check (pair int int)) "near-hit counted, no fallback" (1, 0)
    (Server.near_hit_counts s1);
  Alcotest.(check (pair int int)) "near-hit counted after eviction" (1, 0)
    (Server.near_hit_counts s2);
  let warm = [ "near"; "latency" ] in
  let stats1 = Testkit.stats s1 and stats2 = Testkit.stats s2 in
  Alcotest.(check int) "one warm start (kept)" 1
    (Testkit.stat_int stats1 (warm @ [ "count" ]));
  Alcotest.(check int) "one warm start (evicted)" 1
    (Testkit.stat_int stats2 (warm @ [ "count" ]));
  Alcotest.(check (float 1e-9)) "kept seed observes 1 tick" 1.0
    (Testkit.stat_float stats1 (warm @ [ "sum" ]));
  Alcotest.(check (float 1e-9)) "evicted seed observes 2 ticks" 2.0
    (Testkit.stat_float stats2 (warm @ [ "sum" ]))

let test_similarity_off_no_near_hits () =
  let s = Server.create { Server.default_config with cache_capacity = 128 } in
  ignore (Testkit.call_exn s (submit_assay ~id:"a" base_assay));
  ignore (result_bytes s "a");
  ignore (Testkit.call_exn s (submit_assay ~id:"b" edited_assay));
  ignore (result_bytes s "b");
  Alcotest.(check (pair int int)) "no near path" (0, 0)
    (Server.near_hit_counts s)

(* --- the edit chain ------------------------------------------------------ *)

(* Seed 7: a 12-op chain of alternating mix/heat ops, then 40
   single-op edits, each bumping one random op's duration by 1..3
   (wrapping within 3..9).  Consecutive requests are never
   byte-identical, so none is an exact cache hit, yet each lies within
   the similarity threshold of its predecessor. *)
let edit_chain =
  let rng = Random.State.make [| 7; 0xed17 |] in
  let a =
    { durs = Array.init 12 (fun _ -> 3 + Random.State.int rng 7); extra = [] }
  in
  let base = render a in
  base
  :: List.init 40 (fun _ ->
         let v = Random.State.int rng 12 in
         a.durs.(v) <- 3 + ((a.durs.(v) - 3 + 1 + Random.State.int rng 3) mod 7);
         render a)

let replay_edit_chain ~similarity ~jobs =
  let s =
    Server.create
      { Server.default_config with jobs; cache_capacity = 128; similarity }
  in
  let payloads =
    List.mapi
      (fun i text ->
        let id = Printf.sprintf "e%d" i in
        ignore
          (Testkit.call_exn s
             (P.Submit
                { id; priority = 0; deadline = None; flow = `Ours;
                  spec = P.Assay { text; alloc = None };
                  overrides = P.no_overrides; trace = None }));
        result_bytes s id)
      edit_chain
  in
  (payloads, Server.near_hit_counts s)

let execution_time payload =
  match Result.map (Json.member "execution_time_s") (Json.of_string payload) with
  | Ok (Some (Json.Float f)) -> f
  | Ok (Some (Json.Int i)) -> float_of_int i
  | _ -> Float.nan

(* The server's warm-start quality gate: a warm makespan at most 1.25 x
   the cold lower bound (server.mli). *)
let warm_delta = 0.25

let test_edit_chain () =
  let warm, counts = replay_edit_chain ~similarity:true ~jobs:1 in
  let warm2, counts2 = replay_edit_chain ~similarity:true ~jobs:2 in
  let cold, _ = replay_edit_chain ~similarity:false ~jobs:1 in
  Alcotest.(check (list string)) "warm payloads jobs-invariant" warm warm2;
  Alcotest.(check (pair int int)) "near-hits and fallbacks jobs-invariant"
    counts counts2;
  List.iteri
    (fun i (w, c) ->
      let w = execution_time w and c = execution_time c in
      if not (w <= (c *. (1. +. warm_delta)) +. 1e-9) then
        Alcotest.failf "request %d: warm %g s beyond (1 + delta) x cold %g s"
          i w c)
    (List.combine warm cold);
  Alcotest.(check bool)
    (Printf.sprintf "near-hits %d (fallbacks %d) > 0" (fst counts) (snd counts))
    true (fst counts > 0)

let suites =
  [
    ( "server.sim_index",
      [
        test_fp_relabel_invariant;
        test_fp_duration_sensitive;
        test_fp_structure_sensitive;
        Alcotest.test_case "different allocations incomparable" `Quick
          test_fp_incomparable_allocations;
        test_nearest_exact_at_distance_zero;
      ] );
    ( "repair.warm",
      [
        warm_oracle;
        Alcotest.test_case "distance-0 warm start replays bytes" `Quick
          test_warm_distance_zero_replays_bytes;
      ] );
    ( "server.warm",
      [
        Alcotest.test_case "evicted seed recomputes cold, same bytes" `Quick
          test_eviction_cold_recompute_path;
        Alcotest.test_case "similarity off stays cold" `Quick
          test_similarity_off_no_near_hits;
        Alcotest.test_case "edit chain" `Quick test_edit_chain;
      ] );
  ]
