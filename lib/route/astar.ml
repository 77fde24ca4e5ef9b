type stats = { mutable pops : int; mutable pushes : int; mutable expansions : int }

let stats () = { pops = 0; pushes = 0; expansions = 0 }

let step_cost grid ~use_weights xy =
  1. +. (if use_weights then Rgrid.weight grid xy else 0.)

let path_cost grid ~use_weights path =
  List.fold_left (fun acc xy -> acc +. step_cost grid ~use_weights xy) 0. path

(* Per-domain search state, sized to the largest grid seen and reused
   by every search on the domain.  An entry counts only when its stamp
   equals the current search's generation, so a search starts clean
   without clearing anything:

   - [mark] holds [gen lsl 2 lor m], with [m] the search's verdict on
     the cell (usable, flooded or unusable); any other generation reads
     as unknown;
   - [g] and [parent] (a cell index, -1 for a source) count when
     [g_gen] matches; otherwise [g] is infinite;
   - [closed] and [goal] are sets: a cell belongs when its entry is the
     generation;
   - [flood] is the destination-side flood's queue; no cell enters it
     twice, so it is a flat array read from a head index;
   - the first [ndst] entries of [dx] and [dy] are the coordinates of
     the distinct usable destinations;
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
  flood : int array;
  dx : int array;
  dy : int array;
  mutable ndst : int;
  mutable hkey : float array;
  mutable hval : int array;
  mutable hsize : int;
  mutable busy : bool;
}

let scratch cells =
  { cells; gen = 0; mark = Array.make cells 0; g = Array.make cells 0.;
    g_gen = Array.make cells 0; parent = Array.make cells 0;
    closed = Array.make cells 0; goal = Array.make cells 0;
    flood = Array.make cells 0; dx = Array.make cells 0;
    dy = Array.make cells 0; ndst = 0;
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

(* Verdicts, the low two bits of a current [mark] entry: [flooded]
   cells are usable and already in the destination-side flood. *)
let unknown = 0
let usable_cell = 1
let flooded = 2
let unusable = 3

let mark_of s i =
  let m = s.mark.(i) in
  if m lsr 2 = s.gen then m land 3 else unknown

let set_mark s i m = s.mark.(i) <- (s.gen lsl 2) lor m

(* The least Manhattan distance from [(x, y)] to a usable destination:
   the admissible heuristic, as every step costs at least 1. *)
let bound s x y =
  let best = ref max_int in
  for k = 0 to s.ndst - 1 do
    let d = abs (x - s.dx.(k)) + abs (y - s.dy.(k)) in
    if d < !best then best := d
  done;
  !best

let search_multi ?stats:st ?extra_cost ?(cutoff = infinity) grid ~srcs
    ~dsts ~usable ~use_weights =
  let w = Rgrid.width grid and h = Rgrid.height grid in
  let idx (x, y) = (y * w) + x in
  with_scratch (w * h) @@ fun s ->
  s.gen <- s.gen + 1;
  let gen = s.gen in
  (* [usable] is asked at most once per cell; the mark keeps its
     verdict. *)
  let usable j =
    let m = mark_of s j in
    if m = unknown then begin
      let ok = usable j in
      set_mark s j (if ok then usable_cell else unusable);
      ok
    end
    else m <> unusable
  in
  let srcs = List.filter (fun xy -> usable (idx xy)) srcs
  and dsts = List.filter (fun xy -> usable (idx xy)) dsts in
  if srcs = [] || dsts = [] then None
  else begin
    let pops = ref 0 and pushes = ref 0 and expansions = ref 0 in
    (* Entering cell [j] costs [1 + w(cell)] plus the surcharge; without
       one, adding 0 would change nothing. *)
    let[@inline] step_cost j =
      let c = 1. +. if use_weights then Rgrid.weight_at grid j else 0. in
      match extra_cost with
      | None -> c
      | Some extra -> c +. extra (j mod w, j / w)
    in
    s.ndst <- 0;
    List.iter
      (fun (x, y) ->
        let j = (y * w) + x in
        if s.goal.(j) <> gen then begin
          s.goal.(j) <- gen;
          s.dx.(s.ndst) <- x;
          s.dy.(s.ndst) <- y;
          s.ndst <- s.ndst + 1
        end)
      dsts;
    s.hsize <- 0;
    (* The destination-side flood spreads breadth-first over the usable
       cells, one cell per A* pop, until the two searches meet: it
       reaches a cell A* has given a g-value, or A* gives one to a
       flooded cell.  As every step costs at least 1 and is finite, a
       path exists exactly when they meet.  A flood that runs dry first
       has covered the destinations' whole usable component without
       meeting a source, and the search answers [None]. *)
    let met = ref false and head = ref 0 and tail = ref 0 in
    let visits = ref 0 in
    (* [g] of a cell is infinite until this search records one. *)
    let[@inline] g_of j = if s.g_gen.(j) = gen then s.g.(j) else infinity in
    let record j g parent =
      if mark_of s j = flooded then met := true;
      s.g_gen.(j) <- gen;
      s.g.(j) <- g;
      s.parent.(j) <- parent;
      incr pushes;
      heap_push s (g +. float_of_int (bound s (j mod w) (j / w))) j
    in
    List.iter
      (fun src ->
        let j = idx src in
        let c = step_cost j in
        if c < g_of j then record j c (-1))
      srcs;
    let reach j =
      if s.g_gen.(j) = gen then met := true
      else begin
        set_mark s j flooded;
        s.flood.(!tail) <- j;
        incr tail
      end
    in
    for k = 0 to s.ndst - 1 do
      reach ((s.dy.(k) * w) + s.dx.(k))
    done;
    let visit j = if mark_of s j <> flooded && usable j then reach j in
    (* False once the flood has run dry without meeting A*. *)
    let flood_step () =
      !met
      || !head < !tail
         && begin
           let i = s.flood.(!head) in
           incr head;
           incr visits;
           let x = i mod w and y = i / w in
           if x > 0 then visit (i - 1);
           if x < w - 1 then visit (i + 1);
           if y > 0 then visit (i - w);
           if y < h - 1 then visit (i + w);
           true
         end
    in
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
      T.incr ~cat:"route" ~by:!visits "flood.visits";
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
    (* A goal pops with its g as key, and keys never fall along the pop
       order, so once the least key reaches [cutoff] no path cheaper
       than it is left to find. *)
    let rec loop () =
      if s.hsize > 0 && s.hkey.(0) >= cutoff then begin
        Mfb_util.Telemetry.incr ~cat:"route" "astar.cutoffs";
        report None
      end
      else if s.hsize = 0 || not (flood_step ()) then report None
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
