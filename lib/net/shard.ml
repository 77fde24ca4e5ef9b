(* Classic consistent-hash ring.  Points are FNV-1a 64 hashes of
   "slot:replica" strings — the same hash family as Cache_key, so keys
   and points share one uniform 64-bit circle.  The ring is a sorted
   array scanned by binary search; ties (astronomically unlikely) break
   toward the lower slot id for determinism. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv64 s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

type t = {
  points : (int64 * int) array;  (* sorted by unsigned point, then slot *)
  slots_ : int list;             (* ascending live slot ids *)
  replicas : int;
}

let compare_point (p1, s1) (p2, s2) =
  match Int64.unsigned_compare p1 p2 with 0 -> compare s1 s2 | c -> c

let build ~replicas slot_ids =
  let points =
    Array.init
      (List.length slot_ids * replicas)
      (fun i ->
        let slot = List.nth slot_ids (i / replicas) in
        let r = i mod replicas in
        (fnv64 (Printf.sprintf "%d:%d" slot r), slot))
  in
  Array.sort compare_point points;
  { points; slots_ = slot_ids; replicas }

let of_slots ?(replicas = 64) ids =
  if replicas < 1 then invalid_arg "Shard.of_slots: replicas < 1";
  let ids = List.sort_uniq compare ids in
  if ids = [] then invalid_arg "Shard.of_slots: no slots";
  build ~replicas ids

let create ?replicas ~slots () =
  if slots < 1 then invalid_arg "Shard.create: slots < 1";
  of_slots ?replicas (List.init slots (fun i -> i))

let slots t = t.slots_

let remove t slot =
  if not (List.mem slot t.slots_) then
    invalid_arg "Shard.remove: unknown slot";
  match List.filter (fun s -> s <> slot) t.slots_ with
  | [] -> invalid_arg "Shard.remove: cannot remove the last slot"
  | rest -> build ~replicas:t.replicas rest

(* First ring point at or clockwise-after [h]; wraps to the first point
   when [h] is past the last. *)
let slot_of_hash t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  snd t.points.(if !lo = n then 0 else !lo)

let slot_of_key t key =
  slot_of_hash t (Mfb_server.Cache_key.to_int64 key)
