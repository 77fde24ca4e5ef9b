(* The queue is a list kept sorted in dispatch order: priority
   descending, then submission sequence ascending.  Depths are small
   (tens), so O(depth) inserts keep the code obviously deterministic —
   no heap tie-break subtleties. *)

type 'a item = {
  id : string;
  priority : int;
  submitted : int;
  seq : int;
  deadline : int option;
  payload : 'a;
}

type 'a t = {
  depth_ : int;
  mutable items : 'a item list;  (* dispatch order *)
  mutable next_seq : int;
}

let create ~depth () =
  if depth < 1 then invalid_arg "Job_queue.create: depth < 1";
  { depth_ = depth; items = []; next_seq = 0 }

let depth q = q.depth_
let length q = List.length q.items

type 'a admission =
  | Admitted
  | Displaced of 'a item
  | Refused of string

(* [before a b]: does [a] dispatch before [b]? *)
let before a b =
  a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

let insert q item =
  let rec go = function
    | [] -> [ item ]
    | x :: rest -> if before item x then item :: x :: rest else x :: go rest
  in
  q.items <- go q.items

(* The weakest job is the last in dispatch order. *)
let drop_weakest q =
  match List.rev q.items with
  | [] -> None
  | weakest :: rest_rev ->
    q.items <- List.rev rest_rev;
    Some weakest

let submit q ~now ~id ~priority ?deadline payload =
  let item =
    { id; priority; submitted = now; seq = q.next_seq; deadline; payload }
  in
  if List.length q.items < q.depth_ then begin
    q.next_seq <- q.next_seq + 1;
    insert q item;
    Admitted
  end
  else
    match List.rev q.items with
    | [] -> assert false (* depth >= 1 *)
    | weakest :: _ when priority > weakest.priority ->
      let shed = Option.get (drop_weakest q) in
      q.next_seq <- q.next_seq + 1;
      insert q item;
      Displaced shed
    | _ ->
      Refused
        (Printf.sprintf
           "queue full (depth %d) and priority %d does not outrank the \
            weakest queued job"
           q.depth_ priority)

let expired ~now item =
  match item.deadline with
  | None -> false
  | Some d -> now > item.submitted + d

let pop_batch q ~now ~max =
  let dead, live = List.partition (expired ~now) q.items in
  let rec take n = function
    | [] -> ([], [])
    | rest when n = 0 -> ([], rest)
    | x :: rest ->
      let taken, left = take (n - 1) rest in
      (x :: taken, left)
  in
  let dispatched, left = take (Stdlib.max 0 max) live in
  q.items <- left;
  (dispatched, dead)


let position q id =
  let rec go i = function
    | [] -> None
    | x :: rest -> if String.equal x.id id then Some i else go (i + 1) rest
  in
  go 0 q.items
