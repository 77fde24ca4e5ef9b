type stats = { mutable pops : int; mutable pushes : int; mutable expansions : int }

let stats () = { pops = 0; pushes = 0; expansions = 0 }

let step_cost grid ~use_weights xy =
  1. +. (if use_weights then Rgrid.weight grid xy else 0.)

let path_cost grid ~use_weights path =
  List.fold_left (fun acc xy -> acc +. step_cost grid ~use_weights xy) 0. path

let manhattan (x1, y1) (x2, y2) =
  float_of_int (abs (x1 - x2) + abs (y1 - y2))

(* Per-domain search state, sized to the largest grid seen and reused
   by every search on the domain.  An entry counts only when its stamp
   equals the current search's generation, so a search starts clean
   without clearing anything:

   - [mark] holds [gen lsl 2 lor m], with [m] the flood's verdict on the
     cell (source side, destination side or unusable); any other
     generation reads as unknown;
   - [g] and [parent] (a cell index, -1 for a source) count when
     [g_gen] matches; otherwise [g] is infinite;
   - [closed] and [goal] are sets: a cell belongs when its entry is the
     generation;
   - [qs] and [qd] are the flood's queues; no cell enters either twice,
     so each is a flat array read from a head index;
   - the first [hsize] entries of [hkey] and [hval] are the open list, a
     binary min-heap of cell indices keyed by f-score. *)
type scratch = {
  cells : int;
  mutable gen : int;
  mark : int array;
  g : float array;
  g_gen : int array;
  parent : int array;
  closed : int array;
  goal : int array;
  qs : int array;
  qd : int array;
  mutable hkey : float array;
  mutable hval : int array;
  mutable hsize : int;
  mutable busy : bool;
}

let scratch cells =
  { cells; gen = 0; mark = Array.make cells 0; g = Array.make cells 0.;
    g_gen = Array.make cells 0; parent = Array.make cells 0;
    closed = Array.make cells 0; goal = Array.make cells 0;
    qs = Array.make cells 0; qd = Array.make cells 0;
    hkey = Array.make 16 0.; hval = Array.make 16 0; hsize = 0; busy = false }

let scratch_key = Domain.DLS.new_key (fun () -> scratch 0)

(* The domain's scratch, grown to [cells] and marked busy for the length
   of [f].  A search started from inside another one's [usable] or
   [extra_cost] finds it busy and runs on a fresh scratch of its own. *)
let with_scratch cells f =
  let s = Domain.DLS.get scratch_key in
  if s.busy then f (scratch cells)
  else begin
    if s.cells < cells then Domain.DLS.set scratch_key (scratch cells);
    let s = Domain.DLS.get scratch_key in
    s.busy <- true;
    match f s with
    | r ->
      s.busy <- false;
      r
    | exception e ->
      s.busy <- false;
      raise e
  end

(* The open list's sift rules are [Pqueue]'s: an entry moves up only
   past a strictly greater key, and sifting down prefers the left child
   on a tie, so equal f-scores pop in the order they always did. *)
let heap_swap s i j =
  let k = s.hkey.(i) and v = s.hval.(i) in
  s.hkey.(i) <- s.hkey.(j);
  s.hval.(i) <- s.hval.(j);
  s.hkey.(j) <- k;
  s.hval.(j) <- v

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.hkey.(i) < s.hkey.(p) then begin
      heap_swap s i p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < s.hsize && s.hkey.(l) < s.hkey.(!m) then m := l;
  if r < s.hsize && s.hkey.(r) < s.hkey.(!m) then m := r;
  if !m <> i then begin
    heap_swap s i !m;
    sift_down s !m
  end

let heap_push s key v =
  if s.hsize = Array.length s.hkey then begin
    let n = 2 * s.hsize in
    let k = Array.make n 0. and vs = Array.make n 0 in
    Array.blit s.hkey 0 k 0 s.hsize;
    Array.blit s.hval 0 vs 0 s.hsize;
    s.hkey <- k;
    s.hval <- vs
  end;
  s.hkey.(s.hsize) <- key;
  s.hval.(s.hsize) <- v;
  s.hsize <- s.hsize + 1;
  sift_up s (s.hsize - 1)

(* The root's cell; the heap must be non-empty. *)
let heap_pop s =
  let v = s.hval.(0) in
  s.hsize <- s.hsize - 1;
  if s.hsize > 0 then begin
    s.hkey.(0) <- s.hkey.(s.hsize);
    s.hval.(0) <- s.hval.(s.hsize);
    sift_down s 0
  end;
  v

(* Multi-source BFS distance field from [dsts] over the unobstructed
   grid: distances.(y*w + x) is the number of 4-connected steps to the
   nearest destination.  On an unobstructed grid that is exactly the
   minimum Manhattan distance, so the field substitutes for the per-call
   fold over the destination list without changing a single f-score.
   [queue] holds at least [w * h] cells. *)
let fill_field ~queue ~w ~h dsts =
  let dist = Array.make (w * h) (-1) in
  let tail = ref 0 in
  List.iter
    (fun (x, y) ->
      let i = (y * w) + x in
      if dist.(i) < 0 then begin
        dist.(i) <- 0;
        queue.(!tail) <- i;
        incr tail
      end)
    dsts;
  let head = ref 0 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    let d = dist.(i) + 1 in
    let x = i mod w and y = i / w in
    let visit j =
      if dist.(j) < 0 then begin
        dist.(j) <- d;
        queue.(!tail) <- j;
        incr tail
      end
    in
    if x > 0 then visit (i - 1);
    if x < w - 1 then visit (i + 1);
    if y > 0 then visit (i - w);
    if y < h - 1 then visit (i + w)
  done;
  dist

let heuristic_field ~w ~h dsts =
  fill_field ~queue:(Array.make (w * h) 0) ~w ~h dsts

(* Flood verdicts, the low two bits of a current [mark] entry. *)
let unknown = 0
let src_side = 1
let dst_side = 2
let unusable = 3

let mark_of s i =
  let m = s.mark.(i) in
  if m lsr 2 = s.gen then m land 3 else unknown

let set_mark s i m = s.mark.(i) <- (s.gen lsl 2) lor m

(* Breadth-first flood of the usable cells from [srcs] and from [dsts]
   (cell indices, already usable), one cell per side in turn; true once
   the two sides touch.  A side whose queue runs empty first has marked
   its whole usable component without meeting the other side, so no
   path exists.  The marks keep every verdict of [usable], which the A*
   that follows reads back instead of asking again. *)
let flood ~w ~h s ~usable srcs dsts =
  let touched = ref false and visits = ref 0 in
  let tail_s = ref 0 and tail_d = ref 0 in
  let claim q tail side i =
    let m = mark_of s i in
    if m = unknown then begin
      set_mark s i side;
      q.(!tail) <- i;
      incr tail
    end
    else if m <> side then touched := true
  in
  List.iter (claim s.qs tail_s src_side) srcs;
  List.iter (claim s.qd tail_d dst_side) dsts;
  let visit q tail side j =
    let m = mark_of s j in
    if m = unknown then begin
      if usable (j mod w, j / w) then claim q tail side j
      else set_mark s j unusable
    end
    else if m <> side && m <> unusable then touched := true
  in
  let step q head tail side =
    let i = q.(!head) in
    incr head;
    incr visits;
    let x = i mod w and y = i / w in
    if x > 0 then visit q tail side (i - 1);
    if x < w - 1 then visit q tail side (i + 1);
    if y > 0 then visit q tail side (i - w);
    if y < h - 1 then visit q tail side (i + w)
  in
  let head_s = ref 0 and head_d = ref 0 in
  let rec meet src_turn =
    !touched
    ||
    if src_turn then
      !head_s < !tail_s && begin step s.qs head_s tail_s src_side; meet false end
    else
      !head_d < !tail_d && begin step s.qd head_d tail_d dst_side; meet true end
  in
  let met = meet true in
  Mfb_util.Telemetry.incr ~cat:"route" ~by:!visits "flood.visits";
  met

let search_multi ?stats:st ?field_cache ?extra_cost grid ~srcs ~dsts ~usable
    ~use_weights =
  let srcs = List.filter usable srcs and dsts = List.filter usable dsts in
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let idx (x, y) = (y * w) + x in
  with_scratch (w * h) @@ fun s ->
  s.gen <- s.gen + 1;
  let gen = s.gen in
  (* Every step costs at least 1 and is finite, so A* finds a path
     exactly when the usable cells connect a source to a destination:
     a failed flood answers [None] without building anything. *)
  if srcs = [] || dsts = []
     || not (flood ~w ~h s ~usable (List.map idx srcs) (List.map idx dsts))
  then None
  else begin
    (* From here on only [unusable] versus the rest matters: a cell A*
       finds usable itself is recorded on the source side. *)
    let usable j =
      let m = mark_of s j in
      if m = unknown then begin
        let ok = usable (j mod w, j / w) in
        set_mark s j (if ok then src_side else unusable);
        ok
      end
      else m <> unusable
    in
    let pops = ref 0 and pushes = ref 0 and expansions = ref 0 in
    (* Entering cell [j] costs [1 + w(cell)] plus the surcharge; without
       one, adding 0 would change nothing. *)
    let[@inline] step_cost j =
      let c = 1. +. if use_weights then Rgrid.weight_at grid j else 0. in
      match extra_cost with
      | None -> c
      | Some extra -> c +. extra (j mod w, j / w)
    in
    List.iter (fun xy -> s.goal.(idx xy) <- gen) dsts;
    (* The field depends only on the usable destination set, so repeated
       searches against the same targets (delay candidates, negotiation
       iterations) can share one build through [field_cache].  The cache
       is keyed on the filtered list — a different usable-set yields a
       different key, never a stale field. *)
    let build_field () =
      Mfb_util.Telemetry.incr ~cat:"route" "heuristic_field_builds";
      fill_field ~queue:s.qs ~w ~h dsts
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
    s.hsize <- 0;
    (* [g] of a cell is infinite until this search records one. *)
    let[@inline] g_of j = if s.g_gen.(j) = gen then s.g.(j) else infinity in
    let record j g parent =
      s.g_gen.(j) <- gen;
      s.g.(j) <- g;
      s.parent.(j) <- parent;
      incr pushes;
      heap_push s (g +. float_of_int field.(j)) j
    in
    List.iter
      (fun src ->
        let j = idx src in
        let c = step_cost j in
        if c < g_of j then record j c (-1))
      srcs;
    let rec reconstruct j acc =
      let acc = (j mod w, j / w) :: acc in
      if s.parent.(j) < 0 then acc else reconstruct s.parent.(j) acc
    in
    let report result =
      (match st with
       | Some acc ->
         acc.pops <- acc.pops + !pops;
         acc.pushes <- acc.pushes + !pushes;
         acc.expansions <- acc.expansions + !expansions
       | None -> ());
      let module T = Mfb_util.Telemetry in
      T.incr ~cat:"route" "astar.searches";
      T.incr ~cat:"route" ~by:!pops "astar.pops";
      T.incr ~cat:"route" ~by:!pushes "astar.pushes";
      T.incr ~cat:"route" ~by:!expansions "astar.expansions";
      result
    in
    (* Neighbours west, east, north, south: the order of
       [Rgrid.neighbours], so the open-queue tie-breaking is unchanged. *)
    let expand i j =
      if s.closed.(j) <> gen && usable j then begin
        let tentative = s.g.(i) +. step_cost j in
        if tentative < g_of j -. 1e-12 then record j tentative i
      end
    in
    let rec loop () =
      if s.hsize = 0 then report None
      else begin
        let i = heap_pop s in
        incr pops;
        if s.goal.(i) = gen then report (Some (reconstruct i []))
        else if s.closed.(i) = gen then loop ()
        else begin
          s.closed.(i) <- gen;
          incr expansions;
          let x = i mod w and y = i / w in
          if x > 0 then expand i (i - 1);
          if x < w - 1 then expand i (i + 1);
          if y > 0 then expand i (i - w);
          if y < h - 1 then expand i (i + w);
          loop ()
        end
      end
    in
    loop ()
  end
