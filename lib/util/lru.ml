(* Hashtbl + intrusive doubly-linked recency list.  [head] is the most
   recently used node, [tail] the eviction candidate.  Every operation
   is O(1) expected; the recency order is a pure function of the
   operation sequence, which is what makes cache hit/miss/eviction
   counters safe to expose as deterministic metrics. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* towards head / more recent *)
  mutable next : ('k, 'v) node option;  (* towards tail / less recent *)
}

type stats = { hits : int; misses : int; evictions : int }

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  {
    cap = capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.table

let unlink t node =
  (match node.prev with
   | Some p -> p.next <- node.next
   | None -> t.head <- node.next);
  (match node.next with
   | Some n -> n.prev <- node.prev
   | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let touch t node =
  match t.head with
  | Some h when h == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some node ->
    t.hits <- t.hits + 1;
    touch t node;
    Some node.value
  | None ->
    t.misses <- t.misses + 1;
    None

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.table node.key;
    t.evictions <- t.evictions + 1

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
    node.value <- v;
    touch t node
  | None ->
    if Hashtbl.length t.table >= t.cap then evict_lru t;
    let node = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k node;
    push_front t node

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

let bindings t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk ((node.key, node.value) :: acc) node.next
  in
  walk [] t.head
