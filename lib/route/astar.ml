type stats = { mutable pops : int; mutable pushes : int; mutable expansions : int }

let stats () = { pops = 0; pushes = 0; expansions = 0 }

let step_cost grid ~use_weights xy =
  1. +. (if use_weights then Rgrid.weight grid xy else 0.)

let path_cost grid ~use_weights path =
  List.fold_left (fun acc xy -> acc +. step_cost grid ~use_weights xy) 0. path

let manhattan (x1, y1) (x2, y2) =
  float_of_int (abs (x1 - x2) + abs (y1 - y2))

(* Multi-source BFS distance field from [dsts] over the unobstructed
   grid: distances.(y*w + x) is the number of 4-connected steps to the
   nearest destination.  On an unobstructed grid that is exactly the
   minimum Manhattan distance, so the field substitutes for the per-call
   fold over the destination list without changing a single f-score. *)
let heuristic_field ~w ~h dsts =
  let dist = Array.make (w * h) (-1) in
  let queue = Queue.create () in
  List.iter
    (fun (x, y) ->
      let i = (y * w) + x in
      if dist.(i) < 0 then begin
        dist.(i) <- 0;
        Queue.add i queue
      end)
    dsts;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let d = dist.(i) + 1 in
    let x = i mod w and y = i / w in
    let visit j =
      if dist.(j) < 0 then begin
        dist.(j) <- d;
        Queue.add j queue
      end
    in
    if x > 0 then visit (i - 1);
    if x < w - 1 then visit (i + 1);
    if y > 0 then visit (i - w);
    if y < h - 1 then visit (i + w)
  done;
  dist

(* Cell marks of the reachability flood, one byte per cell.  A cell is
   [unknown] until [usable] has been asked about it. *)
let unknown = '\000'
let src_side = '\001'
let dst_side = '\002'
let unusable = '\003'

(* Breadth-first flood of the usable cells from [srcs] and from [dsts]
   (cell indices, already usable), one cell per side in turn; true once
   the two sides touch.  A side whose queue runs empty first has marked
   its whole usable component without meeting the other side, so no
   path exists.  [marks] keeps every verdict of [usable], which the A*
   that follows reads back instead of asking again. *)
let flood ~w ~h marks ~usable srcs dsts =
  let touched = ref false and visits = ref 0 in
  let qs = Queue.create () and qd = Queue.create () in
  let claim q side i =
    let m = Bytes.get marks i in
    if m = unknown then begin
      Bytes.set marks i side;
      Queue.add i q
    end
    else if m <> side then touched := true
  in
  List.iter (claim qs src_side) srcs;
  List.iter (claim qd dst_side) dsts;
  let step q side =
    let i = Queue.pop q in
    incr visits;
    let visit j =
      let m = Bytes.get marks j in
      if m = unknown then begin
        if usable (j mod w, j / w) then begin
          Bytes.set marks j side;
          Queue.add j q
        end
        else Bytes.set marks j unusable
      end
      else if m <> side && m <> unusable then touched := true
    in
    let x = i mod w and y = i / w in
    if x > 0 then visit (i - 1);
    if x < w - 1 then visit (i + 1);
    if y > 0 then visit (i - w);
    if y < h - 1 then visit (i + w)
  in
  let rec meet (q, side) other =
    !touched
    || ((not (Queue.is_empty q))
       && begin
         step q side;
         meet other (q, side)
       end)
  in
  let met = meet (qs, src_side) (qd, dst_side) in
  Mfb_util.Telemetry.incr ~cat:"route" ~by:!visits "flood.visits";
  met

let search_multi ?stats:st ?field_cache ?(extra_cost = fun _ -> 0.) grid
    ~srcs ~dsts ~usable ~use_weights =
  let srcs = List.filter usable srcs and dsts = List.filter usable dsts in
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let idx (x, y) = (y * w) + x in
  let marks = Bytes.make (w * h) unknown in
  (* Every step costs at least 1 and is finite, so A* finds a path
     exactly when the usable cells connect a source to a destination:
     a failed flood answers [None] without building anything. *)
  if srcs = [] || dsts = []
     || not (flood ~w ~h marks ~usable (List.map idx srcs) (List.map idx dsts))
  then None
  else begin
    (* From here on only [unusable] versus the rest matters: a cell A*
       finds usable itself is recorded on the source side. *)
    let usable j =
      let m = Bytes.get marks j in
      if m = unknown then begin
        let ok = usable (j mod w, j / w) in
        Bytes.set marks j (if ok then src_side else unusable);
        ok
      end
      else m <> unusable
    in
    let pops = ref 0 and pushes = ref 0 and expansions = ref 0 in
    let step_cost grid ~use_weights xy =
      step_cost grid ~use_weights xy +. extra_cost xy
    in
    let is_goal =
      let goals = Hashtbl.create 4 in
      List.iter (fun xy -> Hashtbl.replace goals xy ()) dsts;
      fun xy -> Hashtbl.mem goals xy
    in
    (* The field depends only on the usable destination set, so repeated
       searches against the same targets (delay candidates, negotiation
       iterations) can share one build through [field_cache].  The cache
       is keyed on the filtered list — a different usable-set yields a
       different key, never a stale field. *)
    let build_field () =
      Mfb_util.Telemetry.incr ~cat:"route" "heuristic_field_builds";
      heuristic_field ~w ~h dsts
    in
    let field =
      match field_cache with
      | None -> build_field ()
      | Some tbl ->
        (match Hashtbl.find_opt tbl dsts with
         | Some f -> f
         | None ->
           let f = build_field () in
           Hashtbl.add tbl dsts f;
           f)
    in
    let heuristic xy = float_of_int field.(idx xy) in
    let g_cost = Array.make (w * h) infinity in
    let parent = Array.make (w * h) None in
    let closed = Array.make (w * h) false in
    let open_queue = Mfb_util.Pqueue.create ~cmp:Float.compare in
    let push pr xy =
      incr pushes;
      Mfb_util.Pqueue.push open_queue pr xy
    in
    List.iter
      (fun src ->
        let c = step_cost grid ~use_weights src in
        if c < g_cost.(idx src) then begin
          g_cost.(idx src) <- c;
          push (c +. heuristic src) src
        end)
      srcs;
    let rec reconstruct xy acc =
      match parent.(idx xy) with
      | None -> xy :: acc
      | Some prev -> reconstruct prev (xy :: acc)
    in
    let report result =
      (match st with
       | Some s ->
         s.pops <- s.pops + !pops;
         s.pushes <- s.pushes + !pushes;
         s.expansions <- s.expansions + !expansions
       | None -> ());
      let module T = Mfb_util.Telemetry in
      T.incr ~cat:"route" "astar.searches";
      T.incr ~cat:"route" ~by:!pops "astar.pops";
      T.incr ~cat:"route" ~by:!pushes "astar.pushes";
      T.incr ~cat:"route" ~by:!expansions "astar.expansions";
      result
    in
    let rec loop () =
      match Mfb_util.Pqueue.pop open_queue with
      | None -> report None
      | Some (_, xy) ->
        incr pops;
        if is_goal xy then report (Some (reconstruct xy []))
        else if closed.(idx xy) then loop ()
        else begin
          closed.(idx xy) <- true;
          incr expansions;
          (* Unrolled 4-neighbour walk, same order as Rgrid.neighbours
             (west, east, north, south) so the open-queue tie-breaking
             is unchanged — without allocating the neighbour list. *)
          let g_here = g_cost.(idx xy) in
          let expand nx ny =
            if nx >= 0 && ny >= 0 && nx < w && ny < h then begin
              let j = (ny * w) + nx in
              if (not closed.(j)) && usable j then begin
                let n = (nx, ny) in
                let tentative = g_here +. step_cost grid ~use_weights n in
                if tentative < g_cost.(j) -. 1e-12 then begin
                  g_cost.(j) <- tentative;
                  parent.(j) <- Some xy;
                  push (tentative +. float_of_int field.(j)) n
                end
              end
            end
          in
          let x, y = xy in
          expand (x - 1) y;
          expand (x + 1) y;
          expand x (y - 1);
          expand x (y + 1);
          loop ()
        end
    in
    loop ()
  end

let search ?stats grid ~src ~dst ~usable ~use_weights =
  search_multi ?stats grid ~srcs:[ src ] ~dsts:[ dst ] ~usable ~use_weights
