(* Small helpers shared across test files. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else begin
    let rec scan i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else scan (i + 1)
    in
    scan 0
  end

(* The seven Table-I instances, shared by scheduling/placement/routing
   tests. *)
let suite_instances () =
  List.map
    (fun (inst : Mfb_core.Suite.instance) -> (inst.graph, inst.allocation))
    (Mfb_core.Suite.all ())

(* [f], a predicate on the cells of a grid [w] cells wide, as the
   predicate on cell indices that [Astar.search_multi] asks. *)
let by_index ~w f i = f (i mod w, i / w)

(* Oracles for [Astar.search_multi] on a bare grid: breadth-first
   reachability from the usable sources, and Dijkstra's least path cost
   under the cost model of [Astar.path_cost] (every cell entered, the
   first included). *)
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

(* [answer], a [search_multi] result on [grid], is [Some] exactly when
   the usable cells connect a source to a destination, and then a
   least-cost usable walk from a source to a destination. *)
let search_agrees grid ~usable ~use_weights srcs dsts answer =
  let module Rgrid = Mfb_route.Rgrid in
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let cost xy = 1. +. if use_weights then Rgrid.weight grid xy else 0. in
  match (answer, bfs_connects ~w ~h ~usable srcs dsts) with
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
         (Mfb_route.Astar.path_cost grid ~use_weights path)
         (dijkstra_cost ~w ~h ~usable ~cost srcs dsts)

(* One request through [Server.handle_line], the path the stdio and TCP
   transports take, so every call crosses the wire format both ways. *)
let call_exn server req =
  let module P = Mfb_server.Protocol in
  match Mfb_server.Server.handle_line server (P.request_to_line req) with
  | None -> Alcotest.fail "server produced no response"
  | Some line -> (
    match P.response_of_line line with
    | Ok resp -> resp
    | Error e -> Alcotest.failf "unparsable response: %s" e)

(* The server's stats object, as a [stats] request answers it. *)
let stats server =
  match Mfb_server.Server.handle server Mfb_server.Protocol.Stats with
  | Mfb_server.Protocol.Stats_reply j -> j
  | _ -> Alcotest.fail "stats request not answered with stats"

(* The value at [path] in a stats object, such as
   [[ "latency"; "count" ]] in {!stats}; [stat_int] and [stat_float]
   read it as a number. *)
let stat stats path =
  List.fold_left
    (fun j k -> Option.bind j (Mfb_util.Json.member k))
    (Some stats) path

let stat_int stats path =
  match stat stats path with
  | Some (Mfb_util.Json.Int n) -> n
  | _ -> Alcotest.failf "stats lack %s" (String.concat "." path)

let stat_float stats path =
  match stat stats path with
  | Some (Mfb_util.Json.Float f) -> f
  | Some (Mfb_util.Json.Int n) -> float_of_int n
  | _ -> Alcotest.failf "stats lack %s" (String.concat "." path)
