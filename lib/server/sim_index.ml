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

   The index itself is a small bounded table scanned linearly: entries
   are cheap (a fingerprint plus the caller's payload, not a synthesis
   result), lookups are O(entries x ops), and everything is
   deterministic — ties break towards the exact key, then towards the
   most recently added entry. *)

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

(* --- the bounded index --- *)

type 'a entry = { e_key : Cache_key.t; e_fp : fp; e_payload : 'a }

type 'a t = {
  capacity : int;
  threshold : int;
  mutable entries : 'a entry list;  (* most recently added first *)
}

let create ?(capacity = 64) ~threshold () =
  if capacity < 1 then invalid_arg "Sim_index.create: capacity < 1";
  if threshold < 0 then invalid_arg "Sim_index.create: threshold < 0";
  { capacity; threshold; entries = [] }

let length t = List.length t.entries
let threshold t = t.threshold
let mem t key = List.exists (fun e -> Cache_key.equal e.e_key key) t.entries

let remove t key =
  t.entries <-
    List.filter (fun e -> not (Cache_key.equal e.e_key key)) t.entries

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | e :: rest -> e :: take (n - 1) rest

let add t key fp payload =
  remove t key;
  t.entries <- take t.capacity ({ e_key = key; e_fp = fp; e_payload = payload } :: t.entries)

(* Linear scan for the closest comparable entry within the threshold.
   Strictly-closer wins; at equal distance the earlier (more recently
   added) entry is kept, except that the query's own key always wins its
   distance class — so an exact re-submission finds exactly the entry
   [Cache_key] would. *)
let nearest t key fp =
  let best =
    List.fold_left
      (fun best e ->
        match distance fp e.e_fp with
        | None -> best
        | Some d when d.distance > t.threshold -> best
        | Some d ->
          (match best with
           | Some (_, bd) when bd.distance < d.distance -> best
           | Some (be, bd)
             when bd.distance = d.distance
                  && not (Cache_key.equal e.e_key key) ->
             Some (be, bd)
           | _ -> Some (e, d)))
      None t.entries
  in
  Option.map (fun (e, d) -> (e.e_key, e.e_payload, d)) best
