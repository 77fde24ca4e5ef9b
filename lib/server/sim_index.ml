(* Similarity index over cached synthesis requests.

   A fingerprint decomposes the request the same way [Cache_key] does —
   graph structure, allocation, config — but keeps the per-operation
   neighborhood hashes as a *multiset* instead of folding them into one
   word.  The distance between two comparable fingerprints is then the
   symmetric difference of the multisets (how many radius-1
   neighborhoods each side has that the other lacks) plus a fixed toll
   per differing config knob; an allocation or flow mismatch makes the
   pair incomparable, because a cached placement over a different
   component set cannot seed a warm start at all.

   [nearest] scans the caller's newest-first candidates linearly:
   candidates are cheap (a fingerprint plus the caller's payload, not a
   synthesis result), lookups are O(candidates x ops), and everything is
   deterministic — ties break towards the exact key, then towards the
   newer candidate. *)

module Seq_graph = Mfb_bioassay.Seq_graph

type fp = {
  hashes : int64 array;
      (* per-op neighborhood hashes, indexed by op id (diff naming) *)
  sorted : int64 array;   (* the same hashes sorted (multiset compares) *)
  flow : string;
  alloc : int * int * int * int;
  backend : string;
  exact_fuel : int;
  knobs : float array;
}

(* One slot per scalar config knob, in a fixed order; a differing slot
   costs [knob_toll] distance. *)
let knob_vector (cfg : Mfb_core.Config.t) =
  [|
    cfg.tc; cfg.we; cfg.beta; cfg.gamma; cfg.sa.t0; cfg.sa.t_min;
    cfg.sa.alpha; float_of_int cfg.sa.i_max; float_of_int cfg.sa_restarts;
    float_of_int cfg.seed;
  |]

let knob_toll = 2

let fingerprint ?(flow = "ours") ~(config : Mfb_core.Config.t) ~graph
    ~(allocation : Mfb_component.Allocation.t) () =
  let hashes = Cache_key.neighborhood_hashes graph in
  let sorted = Array.copy hashes in
  Array.sort Int64.compare sorted;
  {
    hashes;
    sorted;
    flow;
    alloc =
      (allocation.mixers, allocation.heaters, allocation.filters,
       allocation.detectors);
    backend = Mfb_schedule.Portfolio.backend_to_string config.backend;
    exact_fuel = config.exact_fuel;
    knobs = knob_vector config;
  }

type diff = {
  distance : int;
  changed_ops : int list;
      (* query op ids whose neighborhood the candidate lacks *)
  added : int;    (* query neighborhoods absent from the candidate *)
  removed : int;  (* candidate neighborhoods absent from the query *)
  knob_edits : int;
}

(* Multiset membership of the candidate's hashes, consumed once per
   match so duplicated neighborhoods (parallel identical ops) pair up
   one-to-one. *)
let distance (q : fp) (c : fp) =
  if q.flow <> c.flow || q.alloc <> c.alloc then None
  else begin
    let pool = Hashtbl.create (Array.length c.sorted) in
    Array.iter
      (fun h ->
        Hashtbl.replace pool h
          (1 + Option.value (Hashtbl.find_opt pool h) ~default:0))
      c.sorted;
    let changed = ref [] in
    Array.iteri
      (fun op h ->
        match Hashtbl.find_opt pool h with
        | Some n when n > 0 -> Hashtbl.replace pool h (n - 1)
        | _ -> changed := op :: !changed)
      q.hashes;
    let changed_ops = List.rev !changed in
    let added = List.length changed_ops in
    let matched = Array.length q.hashes - added in
    let removed = Array.length c.sorted - matched in
    let knob_edits =
      let ne = if q.backend <> c.backend then 1 else 0 in
      let ne = ne + (if q.exact_fuel <> c.exact_fuel then 1 else 0) in
      let ne = ref ne in
      Array.iteri
        (fun i k -> if k <> c.knobs.(i) then incr ne)
        q.knobs;
      !ne
    in
    Some
      {
        distance = added + removed + (knob_toll * knob_edits);
        changed_ops;
        added;
        removed;
        knob_edits;
      }
  end

(* Linear scan for the closest comparable candidate within the
   threshold.  Strictly-closer wins; at equal distance the earlier
   (newer) candidate is kept, except that the query's own key always
   wins its distance class — so an exact re-submission finds exactly the
   entry [Cache_key] would. *)
let nearest ~threshold candidates key fp =
  List.fold_left
    (fun best (ckey, (cfp, payload)) ->
      match distance fp cfp with
      | None -> best
      | Some d when d.distance > threshold -> best
      | Some d ->
        (match best with
         | Some (_, _, bd) when bd.distance < d.distance -> best
         | Some (_, _, bd)
           when bd.distance = d.distance && not (Cache_key.equal ckey key) ->
           best
         | _ -> Some (ckey, payload, d)))
    None candidates
