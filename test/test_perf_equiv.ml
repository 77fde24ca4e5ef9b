(* Differential equivalence suite for the hot-path optimizations: the
   annealing walk against a copy of the Chip-based walk it replaced and
   its incremental energy against a from-scratch recompute, the
   array-backed Rgrid queries against their retained list-based
   references, and the one-pass A* against a copy of the two-pass
   search it replaced.  These properties are the contract that lets the
   optimized inner loops replace the originals without moving a single
   byte of synthesis output. *)

module Chip = Mfb_place.Chip
module Energy = Mfb_place.Energy
module Walk = Mfb_place.Walk
module Annealer = Mfb_place.Annealer
module Rgrid = Mfb_route.Rgrid
module Astar = Mfb_route.Astar
module Router = Mfb_route.Router
module Routed = Mfb_route.Routed
module Pqueue = Mfb_util.Pqueue
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

(* Replays the annealer's delta discipline while force-accepting every
   legal move (the worst case for drift accumulation), and checks the
   running value against [Annealer.objective] at every step.  The
   walk's own from-scratch objective, which the annealer re-syncs to,
   must equal the Chip-based one bit for bit. *)
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
      let walk =
        Walk.create ~compaction_weight:0.01
          (Energy.index ~n_components:n nets) chip
      in
      let inc = ref (Annealer.objective chip nets) in
      let accepted = ref 0 in
      let ok = ref true in
      for _ = 1 to 120 do
        if Walk.propose rng walk then begin
          inc := !inc +. Walk.delta walk;
          incr accepted;
          let full =
            Annealer.objective { chip with places = Walk.places walk } nets
          in
          if Float.abs (!inc -. full) > 1e-6 then ok := false;
          if not (Float.equal (Walk.objective walk) full) then ok := false;
          if !accepted mod 16 = 0 then inc := full
        end
      done;
      !ok)

(* --- Annealing walk oracle ----------------------------------------------- *)

(* The Chip-based walk that [Walk] replaced, move for move: each move
   mutates [chip.places] and returns the touched ids and an undo
   closure, the delta is measured on the touched terms after the move
   and again after [undo], and the running energy re-syncs as the
   annealer does. *)
module Chip_walk = struct
  let touched_legal chip touched =
    let n = Array.length chip.Chip.components in
    List.for_all
      (fun i ->
        Chip.in_bounds chip i
        && List.for_all
             (fun j -> j = i || Chip.pair_legal chip i j)
             (List.init n Fun.id))
      touched

  let finish chip touched undo =
    if touched_legal chip touched then Some (touched, undo)
    else begin
      undo ();
      None
    end

  let random_move rng (chip : Chip.t) =
    let n = Array.length chip.components in
    let one f =
      if n = 0 then None
      else begin
        let i = Rng.int rng n in
        let old = chip.places.(i) in
        chip.places.(i) <- f old;
        finish chip [ i ] (fun () -> chip.places.(i) <- old)
      end
    in
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
      one (fun old ->
          let x = 1 + Rng.int rng (max 1 (chip.width - 2)) in
          let y = 1 + Rng.int rng (max 1 (chip.height - 2)) in
          { old with x; y })
    | 3 -> one (fun old -> { old with rotated = not old.rotated })
    | _ ->
      if n < 2 then None
      else begin
        let i = Rng.int rng n in
        let j = (i + 1 + Rng.int rng (n - 1)) mod n in
        let pi = chip.places.(i) and pj = chip.places.(j) in
        chip.places.(i) <- { pj with rotated = pi.rotated };
        chip.places.(j) <- { pi with rotated = pj.rotated };
        finish chip [ i; j ] (fun () ->
            chip.places.(i) <- pi;
            chip.places.(j) <- pj)
      end

  (* Distinct nets incident to a touched component: per touched id in
     order, its nets in list order, a net already counted skipped. *)
  let incident_total chip nets touched =
    let seen = Hashtbl.create 8 in
    List.fold_left
      (fun acc c ->
        snd
          (List.fold_left
             (fun (k, acc) { Energy.a; b; cp } ->
               if (a = c || b = c) && not (Hashtbl.mem seen k) then begin
                 Hashtbl.add seen k ();
                 (k + 1, acc +. (Chip.manhattan chip a b *. cp))
               end
               else (k + 1, acc))
             (0, acc) nets))
      0. touched

  let partial_compaction chip touched =
    let n = Array.length chip.Chip.components in
    let rec go sum = function
      | [] -> sum
      | i :: rest ->
        let sum = ref sum in
        for j = 0 to n - 1 do
          if j <> i && not (List.mem j rest) then
            sum := !sum +. Chip.manhattan chip i j
        done;
        go !sum rest
    in
    go 0. touched

  let place (params : Annealer.params) ~rng ~nets components =
    let chip = Chip.random rng components in
    let energy = ref (Annealer.objective chip nets) in
    let initial_energy = !energy in
    let best = ref (Chip.copy chip) and best_energy = ref !energy in
    let accepted = ref 0 and attempted = ref 0 and since_resync = ref 0 in
    let resync () =
      energy := Annealer.objective chip nets;
      since_resync := 0
    in
    let temperature = ref params.t0 in
    while !temperature > params.t_min do
      for _ = 1 to params.i_max do
        incr attempted;
        match random_move rng chip with
        | None -> ()
        | Some (touched, undo) ->
          let new_net = incident_total chip nets touched in
          let new_cmp = partial_compaction chip touched in
          let saved = List.map (fun i -> (i, chip.places.(i))) touched in
          undo ();
          let old_net = incident_total chip nets touched in
          let old_cmp = partial_compaction chip touched in
          List.iter (fun (i, p) -> chip.places.(i) <- p) saved;
          let delta =
            new_net -. old_net +. (0.01 *. (new_cmp -. old_cmp))
          in
          if delta < 0. || Rng.float rng 1.0 < exp (-.delta /. !temperature)
          then begin
            incr accepted;
            energy := !energy +. delta;
            incr since_resync;
            if !since_resync >= 64 then resync ();
            if !energy < !best_energy +. 1e-6 then begin
              resync ();
              if !energy < !best_energy then begin
                best_energy := !energy;
                best := Chip.copy chip
              end
            end
          end
          else undo ()
      done;
      resync ();
      temperature := !temperature *. params.alpha
    done;
    let scanline = Chip.scanline components in
    let scanline_energy = Annealer.objective scanline nets in
    let chip, energy =
      if scanline_energy < !best_energy then (scanline, scanline_energy)
      else (!best, !best_energy)
    in
    (chip.places, energy, initial_energy, !accepted, !attempted)
end

(* Random allocations down to one and two components, random nets
   including self-nets, and schedules from a single cooling step with
   one move up to a few hundred moves. *)
let prop_walk_oracle =
  qtest ~count:150 "annealing walk = Chip-based walk, bit for bit"
    QCheck2.Gen.(
      triple
        (pair (int_bound 100000)
           (quad (int_range 0 3) (int_range 0 2) (int_range 0 2)
              (int_range 0 2)))
        (list_size (int_bound 12)
           (triple (int_bound 11) (int_bound 11) (int_bound 8)))
        (triple (int_range 1 60) (int_range 1 9) (int_bound 3)))
    (fun ((seed, (m, h, f, d)), raw_nets, (t0, i_max, cooling)) ->
      let comps =
        components_of (max m (if h + f + d = 0 then 1 else 0), h, f, d)
      in
      let n = Array.length comps in
      let nets =
        List.map
          (fun (a, b, cp) ->
            (* Not dyadic, so a sum taken in another order differs. *)
            { Energy.a = a mod n; b = b mod n;
              cp = 0.05 +. (0.3 *. float_of_int cp) })
          raw_nets
      in
      let params =
        { Annealer.t0 = float_of_int t0; t_min = 1.0;
          alpha = [| 0.3; 0.6; 0.8; 0.9 |].(cooling); i_max }
      in
      let r = Annealer.place ~params ~rng:(Rng.create seed) ~nets comps in
      let places, energy, initial_energy, accepted, attempted =
        Chip_walk.place params ~rng:(Rng.create seed) ~nets comps
      in
      r.chip.places = places
      && Float.equal r.energy energy
      && Float.equal r.initial_energy initial_energy
      && r.accepted = accepted && r.attempted = attempted)

(* The walk's words per attempted move on every Table I assay, through
   the paper flow's placement inputs.  [Gc.minor_words] reads the
   domain's allocation pointer, so it is exact at any moment. *)
let test_walk_allocation () =
  let config = Mfb_core.Config.default in
  List.iter
    (fun (inst : Mfb_core.Suite.instance) ->
      let sched =
        Mfb_schedule.Engine.run ~case1:true ~tc:config.tc inst.graph
          inst.allocation
      in
      let nets =
        Energy.weigh ~beta:config.beta ~gamma:config.gamma
          (Mfb_place.Net.of_schedule sched)
      in
      let w0 = Gc.minor_words () in
      let r =
        Annealer.place ~params:config.sa ~rng:(Rng.create config.seed) ~nets
          sched.components
      in
      let per_move = (Gc.minor_words () -. w0) /. float_of_int r.attempted in
      if per_move > 200. then
        Alcotest.failf "%s: %.0f words per attempted move (at most 200)"
          (Mfb_bioassay.Seq_graph.name inst.graph) per_move)
    (Mfb_core.Suite.all ())

(* --- Rgrid occupation index -------------------------------------------- *)

let fluids =
  [| Fluid.make ~name:"df0" ~diffusion:1e-5;
     Fluid.make ~name:"df1" ~diffusion:1e-7;
     Fluid.make ~name:"df2" ~diffusion:1e-9 |]

(* Lattice times (multiples of 0.25) make exact end coincidences — the
   boundaries the prefix/suffix split pivots on — common instead of
   measure-zero.  Each generated occupation may bring a twin, inserted
   right after it: one with the same end and an earlier start, or one
   with the same interval and the next fluid, so that the index's tie
   rule among equal ends decides [wash_debt]. *)
let occs_gen =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (pair
         (triple (int_range 4 120) (int_bound 12) (int_bound 2))
         (pair (int_bound 2) (pair (int_range 1 4) (int_bound 2)))))

let occupation_of (lo, dur, f) =
  let lo = float_of_int lo *. 0.25 in
  { Rgrid.interval = Interval.make lo (lo +. (float_of_int dur *. 0.25));
    fluid = fluids.(f) }

let with_twins (((lo, dur, f) as base), (twin, (shift, f'))) =
  occupation_of base
  ::
  (match twin with
   | 1 -> [ occupation_of (lo - shift, dur + shift, f') ]
   | 2 -> [ occupation_of (lo, dur, (f + 1) mod 3) ]
   | _ -> [])

let agree grid cell iv fluid =
  let verdict = Rgrid.conflict_free_ref grid cell iv fluid in
  Rgrid.conflict_free grid cell iv fluid = verdict
  && Rgrid.conflict_free_at grid
       ((snd cell * Rgrid.width grid) + fst cell)
       iv fluid
     = verdict
  && Float.equal
       (Rgrid.required_delay grid cell iv fluid)
       (Rgrid.required_delay_ref grid cell iv fluid)
  && Float.equal
       (Rgrid.wash_debt grid cell ~at:(Interval.lo iv) fluid)
       (Rgrid.wash_debt_ref grid cell ~at:(Interval.lo iv) fluid)

(* The index is kept current by every write, so the queries must agree
   with the list references after each insertion, in generated
   (unsorted) order. *)
let prop_rgrid_differential =
  qtest ~count:200 "indexed Rgrid queries match the list references"
    QCheck2.Gen.(
      pair occs_gen (triple (int_bound 130) (int_bound 12) (int_bound 2)))
    (fun (occs, (qlo, qdur, qf)) ->
      let chip = Chip.scanline (components_of (1, 0, 0, 0)) in
      let grid = Rgrid.create ~we:10. chip in
      let cell = (0, 0) in
      let lo = float_of_int qlo *. 0.25 in
      let iv = Interval.make lo (lo +. (float_of_int qdur *. 0.25)) in
      (* The generated query plus boundary probes at every occupation
         end: exact coincidences, zero-length windows, straddles. *)
      let queries () =
        iv
        :: List.concat_map
             (fun (o : Rgrid.occupation) ->
               let hi = Interval.hi o.interval in
               [ Interval.make hi (hi +. 0.5);
                 Interval.make (Float.max 0. (hi -. 0.25)) (hi +. 0.25);
                 Interval.make hi hi ])
             (Rgrid.occupations grid cell)
      in
      List.for_all
        (fun occ ->
          Rgrid.add_occupation grid cell occ;
          List.for_all
            (fun iv -> Array.for_all (fun f -> agree grid cell iv f) fluids)
            (queries ()))
        (List.concat_map with_twins occs @ [ occupation_of (qlo, qdur, qf) ]))

(* Writes and verdicts interleave on a routing grid, and no verdict
   allocates: the index is brought up to date by the write itself. *)
let test_rgrid_query_allocation () =
  let chip = Chip.scanline (components_of (1, 0, 0, 0)) in
  let grid = Rgrid.create ~we:10. chip in
  let cells = [| (0, 0); (1, 0); (0, 1) |] in
  if Array.exists (Rgrid.blocked grid) cells then
    Alcotest.fail "a probed cell is blocked";
  let w = Rgrid.width grid in
  let windows =
    Array.init 24 (fun k ->
        let lo = float_of_int (k * 7 mod 40) *. 0.5 in
        Interval.make lo (lo +. 1.5))
  in
  let words = ref 0. in
  for k = 0 to 59 do
    let xy = cells.(k mod 3) in
    let lo = float_of_int (k * 13 mod 50) *. 0.5 in
    Rgrid.add_occupation grid xy
      { Rgrid.interval = Interval.make lo (lo +. 1.);
        fluid = fluids.(k mod 3) };
    let w0 = Gc.minor_words () in
    for c = 0 to Array.length cells - 1 do
      let x, y = cells.(c) in
      for v = 0 to Array.length windows - 1 do
        for f = 0 to Array.length fluids - 1 do
          ignore
            (Sys.opaque_identity
               (Rgrid.conflict_free_at grid ((y * w) + x) windows.(v)
                  fluids.(f)))
        done
      done
    done;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  Alcotest.(check (float 0.)) "minor words allocated by verdicts" 0. !words

(* --- One-pass A* ---------------------------------------------------------- *)

(* A copy of the two-pass search that [search_multi] replaced, on cell
   coordinates.  A bidirectional flood over the usable cells, one cell
   per side in turn with the source side first, answers [None] when a
   side runs dry before the two touch.  Otherwise A* runs with a BFS
   distance field from the usable destinations as its heuristic, on a
   [Pqueue], whose tie rules the scratch heap copies. *)
let two_pass_search grid ~srcs ~dsts ~usable ~use_weights =
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let idx (x, y) = (y * w) + x and cell i = (i mod w, i / w) in
  let neighbours i =
    let x = i mod w and y = i / w in
    List.filter_map Fun.id
      [ (if x > 0 then Some (i - 1) else None);
        (if x < w - 1 then Some (i + 1) else None);
        (if y > 0 then Some (i - w) else None);
        (if y < h - 1 then Some (i + w) else None) ]
  in
  let srcs = List.filter usable srcs and dsts = List.filter usable dsts in
  (* 0 unknown, 1 source side, 2 destination side, 3 unusable *)
  let side = Array.make (w * h) 0 and touched = ref false in
  let claim q s i =
    if side.(i) = 0 then begin
      side.(i) <- s;
      Queue.add i q
    end
    else if side.(i) <> s then touched := true
  in
  let qs = Queue.create () and qd = Queue.create () in
  List.iter (fun xy -> claim qs 1 (idx xy)) srcs;
  List.iter (fun xy -> claim qd 2 (idx xy)) dsts;
  let step q s =
    List.iter
      (fun j ->
        if side.(j) = 0 then
          if usable (cell j) then claim q s j else side.(j) <- 3
        else if side.(j) <> s && side.(j) <> 3 then touched := true)
      (neighbours (Queue.pop q))
  in
  let rec meet src_turn =
    let q, s = if src_turn then (qs, 1) else (qd, 2) in
    !touched || ((not (Queue.is_empty q)) && (step q s; meet (not src_turn)))
  in
  if srcs = [] || dsts = [] || not (meet true) then None
  else begin
    let field = Array.make (w * h) (-1) and q = Queue.create () in
    List.iter
      (fun xy ->
        if field.(idx xy) < 0 then begin
          field.(idx xy) <- 0;
          Queue.add (idx xy) q
        end)
      dsts;
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      List.iter
        (fun j ->
          if field.(j) < 0 then begin
            field.(j) <- field.(i) + 1;
            Queue.add j q
          end)
        (neighbours i)
    done;
    let cost i =
      1. +. if use_weights then Rgrid.weight grid (cell i) else 0.
    in
    let g = Array.make (w * h) infinity and parent = Array.make (w * h) (-1) in
    let closed = Array.make (w * h) false in
    let open_list = Pqueue.create ~cmp:Float.compare in
    let record i gi p =
      g.(i) <- gi;
      parent.(i) <- p;
      Pqueue.push open_list (gi +. float_of_int field.(i)) i
    in
    List.iter
      (fun xy ->
        let c = cost (idx xy) in
        if c < g.(idx xy) then record (idx xy) c (-1))
      srcs;
    let rec path i acc =
      let acc = cell i :: acc in
      if parent.(i) < 0 then acc else path parent.(i) acc
    in
    let rec loop () =
      match Pqueue.pop open_list with
      | None -> None
      | Some (_, i) ->
        if List.mem (cell i) dsts then Some (path i [])
        else if closed.(i) then loop ()
        else begin
          closed.(i) <- true;
          List.iter
            (fun j ->
              if (not closed.(j)) && usable (cell j) then begin
                let t = g.(i) +. cost j in
                if t < g.(j) -. 1e-12 then record j t i
              end)
            (neighbours i);
          loop ()
        end
    in
    loop ()
  end

(* [search_multi] answers with exactly the path of the two-pass search,
   and [Some] exactly when the usable cells connect a source to a
   destination, with a least-cost usable walk.  Weights are multiples
   of 0.5, so every cost sum is exact; a spread of 1 or 3 makes ties
   common (and unweighted searches are all ties), while a spread of 30
   sends A* past cells the flood already judged.  One mask in three
   rings the sources with unusable cells, and one in three the
   destinations, so the open list empties with the flood still going,
   and the flood runs dry with A* still going.  A cutoff a few halves
   either side of the answer's cost (that cost itself included) must
   leave the answer as it is when the answer costs less, and give [None]
   otherwise. *)
let prop_flood_search =
  let cell = QCheck2.Gen.(pair (int_bound 7) (int_bound 7)) in
  let ends = QCheck2.Gen.(list_size (int_range 1 3) cell) in
  qtest ~count:900 "search_multi = BFS reachability + Dijkstra cost"
    QCheck2.Gen.(
      quad
        (quad (int_range 1 8) (int_range 1 8) bool (oneofl [ 1; 3; 30 ]))
        (pair (int_bound 2) (list_repeat 64 (int_bound 9)))
        (list_repeat 64 (int_bound 30))
        (triple ends ends (int_range (-4) 4)))
    (fun ((w, h, use_weights, spread), (walled, mask), weights,
          (srcs, dsts, cut)) ->
      let mask = Array.of_list mask and weights = Array.of_list weights in
      let at (x, y) = (y * w) + x in
      let fit = List.map (fun (x, y) -> (x mod w, y mod h)) in
      let srcs = fit srcs and dsts = fit dsts in
      let ring ends (x, y) =
        (not (List.mem (x, y) ends))
        && List.exists (fun (ex, ey) -> abs (x - ex) + abs (y - ey) = 1) ends
      in
      let usable xy =
        match walled with
        | 1 -> mask.(at xy) < 9 && not (ring srcs xy)
        | 2 -> mask.(at xy) < 9 && not (ring dsts xy)
        | _ -> mask.(at xy) < 6
      in
      let grid =
        Rgrid.create ~we:0.
          { Chip.width = w; height = h; components = [||]; places = [||] }
      in
      for i = 0 to (w * h) - 1 do
        Rgrid.set_weight grid (i mod w, i / w)
          (0.5 *. float_of_int (weights.(i) mod (spread + 1)))
      done;
      let search ?cutoff () =
        Astar.search_multi ?cutoff grid ~srcs ~dsts
          ~usable:(Testkit.by_index ~w usable) ~use_weights
      in
      let answer = search () in
      let cost = Option.map (Astar.path_cost grid ~use_weights) answer in
      let cutoff =
        Option.value cost ~default:4. +. (0.5 *. float_of_int cut)
      in
      answer = two_pass_search grid ~srcs ~dsts ~usable ~use_weights
      && Testkit.search_agrees grid ~usable ~use_weights srcs dsts answer
      && search ~cutoff ()
         = match cost with Some c when c < cutoff -> answer | _ -> None)

(* The schedule and annealed chip of an assay, as the paper flow's
   first placement sees them. *)
let routing_inputs graph allocation =
  let config = Mfb_core.Config.default in
  let sched =
    Mfb_schedule.Engine.run ~case1:true ~tc:config.tc graph allocation
  in
  let nets =
    Energy.weigh ~beta:config.beta ~gamma:config.gamma
      (Mfb_place.Net.of_schedule sched)
  in
  let chip =
    (Annealer.place ~params:config.sa ~rng:(Rng.create config.seed) ~nets
       sched.components)
      .chip
  in
  (chip, sched)

let table1_routing =
  lazy
    (List.map
       (fun (inst : Mfb_core.Suite.instance) ->
         ( Mfb_bioassay.Seq_graph.name inst.graph,
           routing_inputs inst.graph inst.allocation ))
       (Mfb_core.Suite.all ()))

(* Routing the Table I assays allocates at most 30 words per A* pop,
   summed over all seven: a verdict on a cell allocates nothing, and the
   search state lives in the scratch.  (The two smallest assays pop a
   few hundred times, so their grids and results alone exceed that per
   pop.)  Pops are counted in a traced pass, words in an untraced one. *)
let test_routing_allocation () =
  let config = Mfb_core.Config.default in
  let words, pops =
    List.fold_left
      (fun (words, pops) (_, (chip, sched)) ->
        let route () = Router.route ~we:config.we ~tc:config.tc chip sched in
        let traced =
          Test_util.with_fake_sink (fun sink ->
              ignore (route ());
              Mfb_util.Telemetry.counter_total sink ~cat:"route" "astar.pops")
        in
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (route ()));
        (words +. (Gc.minor_words () -. w0), pops + traced))
      (0., 0) (Lazy.force table1_routing)
  in
  let per_pop = words /. float_of_int pops in
  if per_pop > 30. then
    Alcotest.failf "%.1f words per A* pop (at most 30)" per_pop

(* --- Incumbent cutoff on the delay ladder ------------------------------ *)

(* A copy of [Router.route_one]'s [Cheapest] policy from before the
   incumbent cutoff, for a transport at its own delay 0: every ladder
   delay is searched to the end, the lowest [path cost + 8 x delay]
   wins and a tie keeps the earlier delay.  With no candidate, the
   shortest obstacle-avoiding path is settled at whatever delay clears
   it, or committed with its conflicts. *)
let uncut_cheapest grid ~tc (tr : Mfb_schedule.Types.transport) =
  let kind = Routed.Transport in
  let srcs, dsts = Routed.endpoints grid kind tr in
  let commit path delay = Routed.commit_path grid ~tc kind tr ~path ~delay in
  let chosen =
    List.fold_left
      (fun best d ->
        match
          Astar.search_multi grid ~srcs ~dsts
            ~usable:(Routed.usable grid tr ~delay:d ~src_ports:srcs)
            ~use_weights:true
        with
        | None -> best
        | Some path ->
          let s = Astar.path_cost grid ~use_weights:true path +. (8. *. d) in
          (match best with
           | Some (_, s') when s' <= s -> best
           | Some _ | None -> Some ((path, d), s)))
      None
      [ 0.; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 6.0; 8.0 ]
  in
  match chosen with
  | Some ((path, d), _) ->
    if d = 0. then Router.In_window (commit path d)
    else Router.Delayed (commit path d)
  | None ->
    let settle path =
      match Routed.settle_delay grid tr ~src_ports:srcs path with
      | Some d -> Router.Delayed (commit path d)
      | None -> Router.Unresolved (commit path 0.)
    in
    (match
       Astar.search_multi grid ~srcs ~dsts
         ~usable:(fun i -> not (Rgrid.blocked_at grid i))
         ~use_weights:false
     with
     | Some path -> settle path
     | None -> settle [ List.hd srcs; List.hd dsts ])

(* The smoke rungs of perfbench's [scale] workload. *)
let scale_smoke_routing () =
  List.map
    (fun n ->
      let graph =
        Mfb_bioassay.Synthetic.generate
          ~name:(Printf.sprintf "scale-%d" n)
          { Mfb_bioassay.Synthetic.default_params with
            n_ops = n; layer_width = max 4 (n / 25); seed = n }
      in
      let m = max 2 (n / 16) in
      let allocation =
        Allocation.make ~mixers:m ~heaters:(max 1 (m / 2))
          ~filters:(max 1 (m / 4)) ~detectors:(max 1 (m / 4))
      in
      (Mfb_bioassay.Seq_graph.name graph, routing_inputs graph allocation))
    [ 30; 60 ]

(* Every transport of the Table I assays and of the smoke [scale] rungs,
   routed on twin grids, by [Router.route_one] and by the uncut copy:
   the same outcome, path and delay, one transport at a time.  The
   cutoff must also have ended some searches. *)
let test_ladder_cutoff () =
  let config = Mfb_core.Config.default in
  let tc = config.tc in
  let summary = function
    | Router.In_window t -> ("in window", t.Routed.path, t.delay)
    | Delayed t -> ("delayed", t.path, t.delay)
    | Unresolved t -> ("unresolved", t.path, t.delay)
    | Unroutable -> ("unroutable", [], 0.)
  in
  let cutoffs =
    Test_util.with_fake_sink (fun sink ->
        List.iter
          (fun (name, (chip, sched)) ->
            let cut = Rgrid.create ~we:config.we chip
            and uncut = Rgrid.create ~we:config.we chip in
            List.iteri
              (fun k tr ->
                let a, pa, da =
                  summary (Router.route_one ~policy:Cheapest cut ~tc tr)
                and b, pb, db = summary (uncut_cheapest uncut ~tc tr) in
                if (a, pa, da) <> (b, pb, db) then
                  Alcotest.failf
                    "%s transport %d: %s at %g over %d cells, uncut %s at %g \
                     over %d cells"
                    name k a da (List.length pa) b db (List.length pb))
              (Routed.start_order sched))
          (Lazy.force table1_routing @ scale_smoke_routing ());
        Mfb_util.Telemetry.counter_total sink ~cat:"route" "astar.cutoffs")
  in
  if cutoffs = 0 then Alcotest.fail "the cutoff ended no search"

let suites =
  [ ( "perf.equiv",
      [ prop_incremental_energy; prop_walk_oracle; prop_rgrid_differential;
        Alcotest.test_case "Rgrid verdicts allocate nothing between writes"
          `Quick test_rgrid_query_allocation;
        prop_flood_search;
        Alcotest.test_case "walk allocates at most 200 words per move"
          `Quick test_walk_allocation;
        Alcotest.test_case "routing allocates at most 30 words per A* pop"
          `Quick test_routing_allocation;
        Alcotest.test_case "ladder cutoff = every delay searched to the end"
          `Quick test_ladder_cutoff ] ) ]
