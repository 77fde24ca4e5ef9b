(* Differential equivalence suite for the hot-path optimizations: the
   incremental SA energy against a from-scratch recompute, the
   array-backed Rgrid queries against their retained list-based
   references, and the BFS heuristic field against the per-destination
   Manhattan fold.  These properties are the contract that lets the
   optimized inner loops replace the originals without moving a single
   byte of synthesis output. *)

module Chip = Mfb_place.Chip
module Energy = Mfb_place.Energy
module Moves = Mfb_place.Moves
module Annealer = Mfb_place.Annealer
module Rgrid = Mfb_route.Rgrid
module Astar = Mfb_route.Astar
module Interval = Mfb_util.Interval
module Fluid = Mfb_bioassay.Fluid
module Allocation = Mfb_component.Allocation
module Rng = Mfb_util.Rng

let qtest ?(count = 60) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

let components_of vector =
  Array.of_list (Allocation.components (Allocation.of_vector vector))

(* --- Incremental energy ------------------------------------------------ *)

(* Replays the annealer's delta discipline — measure the touched terms
   after the move, undo, measure before, redo — while force-accepting
   every legal move (the worst case for drift accumulation), and checks
   the running value against [Annealer.objective] at every step. *)
let prop_incremental_energy =
  qtest ~count:40 "incremental energy tracks the from-scratch objective"
    QCheck2.Gen.(triple (int_bound 10000) (int_range 2 6) (int_bound 8))
    (fun (seed, n_mixers, extra_nets) ->
      let comps = components_of (n_mixers, 1, 1, 1) in
      let n = Array.length comps in
      let rng = Rng.create seed in
      let chip = Chip.random rng comps in
      let nets =
        List.init (n + extra_nets) (fun _ ->
            let a = Rng.int rng n and b = Rng.int rng n in
            { Energy.a; b; cp = 0.5 +. Rng.float rng 2.5 })
      in
      let index = Energy.index ~n_components:n nets in
      let inc = ref (Annealer.objective chip nets) in
      let accepted = ref 0 in
      let ok = ref true in
      for _ = 1 to 120 do
        match Moves.random_move_touched rng chip with
        | None -> ()
        | Some (touched, undo) ->
          let new_net, _ = Energy.incident_total chip index touched in
          let new_cmp, _ = Energy.partial_compaction chip touched in
          let saved =
            List.map (fun i -> (i, chip.Chip.places.(i))) touched
          in
          undo ();
          let old_net, _ = Energy.incident_total chip index touched in
          let old_cmp, _ = Energy.partial_compaction chip touched in
          List.iter (fun (i, p) -> chip.Chip.places.(i) <- p) saved;
          inc :=
            !inc +. (new_net -. old_net)
            +. (0.01 *. (new_cmp -. old_cmp));
          incr accepted;
          let full = Annealer.objective chip nets in
          if Float.abs (!inc -. full) > 1e-6 then ok := false;
          if !accepted mod 16 = 0 then begin
            (* Re-sync contract: after the full recompute the tracked
               value equals the from-scratch objective exactly. *)
            inc := full;
            if not (Float.equal !inc (Annealer.objective chip nets)) then
              ok := false
          end
      done;
      !ok)

(* --- Rgrid occupation index -------------------------------------------- *)

let fluids =
  [| Fluid.make ~name:"df0" ~diffusion:1e-5;
     Fluid.make ~name:"df1" ~diffusion:1e-7;
     Fluid.make ~name:"df2" ~diffusion:1e-9 |]

(* Lattice times (multiples of 0.25) make exact end coincidences — the
   boundaries the prefix/suffix split pivots on — common instead of
   measure-zero. *)
let occs_gen =
  QCheck2.Gen.(
    list_size (int_bound 12) (triple (int_bound 120) (int_bound 12) (int_bound 2)))

let agree grid cell iv fluid =
  Rgrid.conflict_free grid cell iv fluid
  = Rgrid.conflict_free_ref grid cell iv fluid
  && Float.equal
       (Rgrid.required_delay grid cell iv fluid)
       (Rgrid.required_delay_ref grid cell iv fluid)
  && Float.equal
       (Rgrid.wash_debt grid cell ~at:(Interval.lo iv) fluid)
       (Rgrid.wash_debt_ref grid cell ~at:(Interval.lo iv) fluid)

let prop_rgrid_differential =
  qtest ~count:200 "indexed Rgrid queries match the list references"
    QCheck2.Gen.(
      pair occs_gen (triple (int_bound 130) (int_bound 12) (int_bound 2)))
    (fun (occs, (qlo, qdur, qf)) ->
      let chip = Chip.scanline (components_of (1, 0, 0, 0)) in
      let grid = Rgrid.create ~we:10. chip in
      let cell = (0, 0) in
      List.iter
        (fun (lo, dur, f) ->
          let lo = float_of_int lo *. 0.25 in
          Rgrid.add_occupation grid cell
            { Rgrid.interval =
                Interval.make lo (lo +. (float_of_int dur *. 0.25));
              fluid = fluids.(f) })
        occs;
      let fluid = fluids.(qf) in
      let lo = float_of_int qlo *. 0.25 in
      let iv = Interval.make lo (lo +. (float_of_int qdur *. 0.25)) in
      (* The generated query plus boundary probes at every occupation
         end: exact coincidences, zero-length windows, straddles. *)
      let queries =
        iv
        :: List.concat_map
             (fun (o : Rgrid.occupation) ->
               let hi = Interval.hi o.interval in
               [ Interval.make hi (hi +. 0.5);
                 Interval.make (Float.max 0. (hi -. 0.25)) (hi +. 0.25);
                 Interval.make hi hi ])
             (Rgrid.occupations grid cell)
      in
      List.for_all (fun iv -> agree grid cell iv fluid) queries
      && begin
        (* Interleave a write and re-query everything: the index must
           refresh, not serve stale answers. *)
        Rgrid.add_occupation grid cell { Rgrid.interval = iv; fluid };
        List.for_all
          (fun iv ->
            Array.for_all (fun f -> agree grid cell iv f) fluids)
          queries
      end)

(* --- BFS heuristic field ------------------------------------------------ *)

let prop_heuristic_field =
  qtest ~count:120 "BFS heuristic field = Manhattan fold on every cell"
    QCheck2.Gen.(
      triple (int_range 1 24) (int_range 1 24)
        (list_size (int_range 1 6) (pair (int_bound 23) (int_bound 23))))
    (fun (w, h, dsts) ->
      let dsts = List.map (fun (x, y) -> (x mod w, y mod h)) dsts in
      let field = Astar.heuristic_field ~w ~h dsts in
      let ok = ref true in
      for y = 0 to h - 1 do
        for x = 0 to w - 1 do
          let fold =
            List.fold_left
              (fun acc d -> Float.min acc (Astar.manhattan (x, y) d))
              infinity dsts
          in
          if not (Float.equal (float_of_int field.((y * w) + x)) fold) then
            ok := false
        done
      done;
      !ok)

(* --- Reachability flood ---------------------------------------------------- *)

(* Test-local oracles on a bare w x h grid: breadth-first reachability
   from the usable sources, and Dijkstra's least path cost under the
   cost model of [Astar.path_cost] (every cell entered, the first
   included). *)
let neighbours4 ~w ~h (x, y) =
  List.filter
    (fun (x, y) -> x >= 0 && y >= 0 && x < w && y < h)
    [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]

let bfs_connects ~w ~h ~usable srcs dsts =
  let seen = Hashtbl.create 64 in
  let rec spread = function
    | [] -> ()
    | xy :: rest ->
      let fresh =
        List.filter
          (fun n -> usable n && not (Hashtbl.mem seen n))
          (neighbours4 ~w ~h xy)
      in
      List.iter (fun n -> Hashtbl.replace seen n ()) fresh;
      spread (rest @ fresh)
  in
  let starts = List.filter usable srcs in
  List.iter (fun xy -> Hashtbl.replace seen xy ()) starts;
  spread starts;
  List.exists (fun xy -> Hashtbl.mem seen xy) dsts

let dijkstra_cost ~w ~h ~usable ~cost srcs dsts =
  let idx (x, y) = (y * w) + x in
  let dist = Array.make (w * h) infinity and settled = Array.make (w * h) false in
  List.iter
    (fun xy -> if usable xy then dist.(idx xy) <- Float.min dist.(idx xy) (cost xy))
    srcs;
  let rec settle () =
    let next = ref (-1) in
    Array.iteri
      (fun i d ->
        if (not settled.(i)) && d < infinity && (!next < 0 || d < dist.(!next))
        then next := i)
      dist;
    if !next >= 0 then begin
      let i = !next in
      settled.(i) <- true;
      List.iter
        (fun n ->
          if usable n then
            dist.(idx n) <- Float.min dist.(idx n) (dist.(i) +. cost n))
        (neighbours4 ~w ~h (i mod w, i / w));
      settle ()
    end
  in
  settle ();
  List.fold_left
    (fun acc xy -> if usable xy then Float.min acc dist.(idx xy) else acc)
    infinity dsts

(* [search_multi] answers [Some] exactly when the usable cells connect a
   source to a destination, and its path is a least-cost usable walk
   from a source to a destination.  Weights are multiples of 0.5, so
   every cost sum is exact; their wide spread sends A* past the cells
   the flood already judged, so memoized verdicts are re-read too. *)
let prop_flood_search =
  let cell = QCheck2.Gen.(pair (int_bound 7) (int_bound 7)) in
  let ends = QCheck2.Gen.(list_size (int_range 1 3) cell) in
  qtest ~count:600 "search_multi = BFS reachability + Dijkstra cost"
    QCheck2.Gen.(
      quad
        (triple (int_range 1 8) (int_range 1 8) bool)
        (list_repeat 64 (int_bound 9))
        (list_repeat 64 (int_bound 30))
        (pair ends ends))
    (fun ((w, h, use_weights), mask, weights, (srcs, dsts)) ->
      let mask = Array.of_list mask and weights = Array.of_list weights in
      let at (x, y) = (y * w) + x in
      let fit = List.map (fun (x, y) -> (x mod w, y mod h)) in
      let srcs = fit srcs and dsts = fit dsts in
      let usable xy = mask.(at xy) < 6 in
      let grid =
        Rgrid.create ~we:0.
          { Chip.width = w; height = h; components = [||]; places = [||] }
      in
      for i = 0 to (w * h) - 1 do
        Rgrid.set_weight grid (i mod w, i / w) (0.5 *. float_of_int weights.(i))
      done;
      let cost xy = 1. +. if use_weights then Rgrid.weight grid xy else 0. in
      match
        ( Astar.search_multi grid ~srcs ~dsts ~usable ~use_weights,
          bfs_connects ~w ~h ~usable srcs dsts )
      with
      | None, connected -> not connected
      | Some _, false -> false
      | Some path, true ->
        let rec linked = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
            abs (x1 - x2) + abs (y1 - y2) = 1 && linked rest
          | [ _ ] | [] -> true
        in
        linked path
        && List.for_all usable path
        && List.mem (List.hd path) srcs
        && List.mem (List.nth path (List.length path - 1)) dsts
        && Float.equal
             (Astar.path_cost grid ~use_weights path)
             (dijkstra_cost ~w ~h ~usable ~cost srcs dsts))

let suites =
  [ ( "perf.equiv",
      [ prop_incremental_energy; prop_rgrid_differential;
        prop_heuristic_field; prop_flood_search ] ) ]
