module Interval = Mfb_util.Interval
module Fluid = Mfb_bioassay.Fluid

type occupation = { interval : Interval.t; fluid : Fluid.t }

(* Per-cell occupation index, rebuilt lazily after writes:

   - [sorted]: occupations ordered by (interval end, position in the
     canonical list) — binary search splits any query into a "settled
     past" prefix (hi <= t) and a small "active tail" suffix.
   - [ptop]: for each prefix length, the best and second-best
     end-plus-wash bound [B(o) = hi(o) +. wash_time(o.fluid)] grouped by
     fluid (the two entries always name distinct fluids).  The wash
     constraint against a query fluid [f] needs [max B(o)] over prior
     occupations whose fluid differs from [f]; that is the best entry
     when its fluid differs from [f] and the second-best otherwise
     (same-fluid priors need no wash). *)
type cell = {
  mutable weight : float;
  mutable occs : occupation list; (* sorted by interval start *)
  blocked : bool;
  mutable dirty : bool;
  mutable sorted : occupation array; (* by (interval end, list position) *)
  mutable ends : float array; (* interval ends of [sorted] *)
  mutable ptop : ((Fluid.t * float) option * (Fluid.t * float) option) array;
}

type t = {
  grid_width : int;
  grid_height : int;
  cells : cell array;
  ports : (int * int) list array; (* per component id, non-empty *)
}

let idx g (x, y) = (y * g.grid_width) + x

let in_bounds g (x, y) =
  x >= 0 && y >= 0 && x < g.grid_width && y < g.grid_height

let cell_exn g xy =
  if not (in_bounds g xy) then
    invalid_arg
      (Printf.sprintf "Rgrid: cell (%d, %d) out of bounds" (fst xy) (snd xy));
  g.cells.(idx g xy)

(* Perimeter cells of a rectangle, grouped per side; each side lists its
   middle cell first so ports prefer centred attachment points. *)
let perimeter_sides (x, y, w, h) =
  let centred cells =
    let n = List.length cells in
    let mid = (n - 1) / 2 in
    List.mapi (fun i c -> (abs (i - mid), c)) cells
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let top = List.init w (fun i -> (x + i, y - 1)) in
  let right = List.init h (fun i -> (x + w, y + i)) in
  let bottom = List.init w (fun i -> (x + i, y + h)) in
  let left = List.init h (fun i -> (x - 1, y + i)) in
  List.map centred [ top; right; bottom; left ]

let create ~we (chip : Mfb_place.Chip.t) =
  if we < 0. then invalid_arg "Rgrid.create: negative w_e";
  let blocked_tbl = Hashtbl.create 64 in
  List.iter (fun xy -> Hashtbl.replace blocked_tbl xy ())
    (Mfb_place.Chip.blocked_cells chip);
  let cells =
    Array.init (chip.width * chip.height) (fun i ->
        let xy = (i mod chip.width, i / chip.width) in
        { weight = we; occs = []; blocked = Hashtbl.mem blocked_tbl xy;
          dirty = false; sorted = [||]; ends = [||]; ptop = [||] })
  in
  let g =
    { grid_width = chip.width; grid_height = chip.height; cells;
      ports = Array.make (Array.length chip.components) [] }
  in
  Array.iteri
    (fun i _ ->
      let rect = Mfb_place.Chip.footprint chip i in
      let free xy = in_bounds g xy && not (cell_exn g xy).blocked in
      let side_ports =
        List.filter_map
          (fun side -> List.find_opt free side)
          (perimeter_sides rect)
      in
      if side_ports = [] then
        invalid_arg
          (Printf.sprintf "Rgrid.create: component %d has no free port" i);
      g.ports.(i) <- side_ports)
    chip.components;
  g

let width g = g.grid_width
let height g = g.grid_height

let blocked g xy = (cell_exn g xy).blocked

let blocked_at g i = g.cells.(i).blocked

let weight g xy = (cell_exn g xy).weight

let weight_at g i = g.cells.(i).weight

let set_weight g xy w = (cell_exn g xy).weight <- w

let occupations g xy = (cell_exn g xy).occs

let add_occupation g xy occ =
  let cell = cell_exn g xy in
  let rec insert = function
    | [] -> [ occ ]
    | o :: rest as all ->
      if Interval.compare occ.interval o.interval <= 0 then occ :: all
      else o :: insert rest
  in
  cell.occs <- insert cell.occs;
  cell.dirty <- true

let ports g c =
  if c < 0 || c >= Array.length g.ports then
    invalid_arg (Printf.sprintf "Rgrid.ports: unknown component %d" c);
  g.ports.(c)

let port g c =
  match ports g c with
  | xy :: _ -> xy
  | [] -> assert false (* non-emptiness enforced at creation *)

(* Wash separation needed between a prior occupation and a fluid entering
   at the start of [iv]: none when the fluids are identical. *)
let wash_between prior fluid =
  if Fluid.equal prior.fluid fluid then 0. else Fluid.wash_time prior.fluid

(* ---- Index maintenance ---------------------------------------------- *)

let refresh cell =
  if cell.dirty then begin
    let arr = Array.of_list cell.occs in
    (* Stable sort by interval end keeps the canonical list order among
       equal ends — wash_debt's tie-break depends on it. *)
    Array.stable_sort
      (fun a b -> Float.compare (Interval.hi a.interval) (Interval.hi b.interval))
      arr;
    let n = Array.length arr in
    let ends = Array.make n 0. in
    let ptop = Array.make n (None, None) in
    let top = ref (None, None) in
    for i = 0 to n - 1 do
      let o = arr.(i) in
      ends.(i) <- Interval.hi o.interval;
      let f = o.fluid in
      let b = Interval.hi o.interval +. Fluid.wash_time f in
      let best, second = !top in
      (top :=
         match best, second with
         | None, _ -> (Some (f, b), None)
         | Some (f1, v1), _ when Fluid.equal f f1 ->
           (Some (f1, Float.max v1 b), second)
         | Some (f1, v1), Some (f2, v2) when Fluid.equal f f2 ->
           let v2 = Float.max v2 b in
           if v2 > v1 then (Some (f2, v2), Some (f1, v1))
           else (Some (f1, v1), Some (f2, v2))
         | Some (f1, v1), second ->
           if b > v1 then (Some (f, b), Some (f1, v1))
           else (
             match second with
             | Some (_, v2) when b <= v2 -> (Some (f1, v1), second)
             | _ -> (Some (f1, v1), Some (f, b))));
      ptop.(i) <- !top
    done;
    cell.sorted <- arr;
    cell.ends <- ends;
    cell.ptop <- ptop;
    cell.dirty <- false
  end

(* Number of occupations whose interval end is [<= t]: upper bound by
   binary search on the end-sorted array. *)
let settled_before cell t =
  let lo = ref 0 and hi = ref (Array.length cell.ends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cell.ends.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* [max (hi o +. wash_time o.fluid)] over the first [r] end-sorted
   occupations whose fluid differs from [fluid]; [neg_infinity] when no
   such occupation exists.  Same-fluid priors impose no wash, so the
   top-two distinct-fluid maxima decide the query.  Every float it
   returns is already boxed, so it allocates nothing. *)
let wash_bound cell r fluid =
  if r = 0 then neg_infinity
  else
    match cell.ptop.(r - 1) with
    | Some (f1, v1), second ->
      if not (Fluid.equal f1 fluid) then v1
      else (match second with Some (_, v2) -> v2 | None -> neg_infinity)
    | None, _ -> neg_infinity

(* ---- Reference implementations (retained for differential tests) ---- *)

let conflict_free_ref g xy iv fluid =
  let cell = cell_exn g xy in
  (not cell.blocked)
  && List.for_all
       (fun o ->
         if Interval.overlaps o.interval iv then false
         else if Interval.hi o.interval <= Interval.lo iv then
           Interval.lo iv +. 1e-9
           >= Interval.hi o.interval +. wash_between o fluid
         else true)
       cell.occs

let required_delay_ref g xy iv fluid =
  let cell = cell_exn g xy in
  if cell.blocked then infinity
  else begin
    let rec settle delay fuel =
      if fuel = 0 then delay
      else begin
        let shifted = Interval.shift iv delay in
        let worst =
          List.fold_left
            (fun acc o ->
              let needed =
                if Interval.overlaps o.interval shifted
                   || (Interval.hi o.interval <= Interval.lo shifted
                      && Interval.lo shifted +. 1e-9
                         < Interval.hi o.interval +. wash_between o fluid)
                then
                  Interval.hi o.interval +. wash_between o fluid
                  -. Interval.lo shifted
                else 0.
              in
              Float.max acc needed)
            0. cell.occs
        in
        if worst <= 1e-9 then delay else settle (delay +. worst) (fuel - 1)
      end
    in
    settle 0. (List.length cell.occs + 2)
  end

let wash_debt_ref g xy ~at fluid =
  let cell = cell_exn g xy in
  let latest_prior =
    List.fold_left
      (fun acc o ->
        if Interval.hi o.interval <= at +. 1e-9 then
          match acc with
          | Some best
            when Interval.hi best.interval >= Interval.hi o.interval ->
            acc
          | Some _ | None -> Some o
        else acc)
      None cell.occs
  in
  match latest_prior with
  | Some o -> wash_between o fluid
  | None -> 0.

(* ---- Indexed hot paths ----------------------------------------------

   All three queries split the cell's occupations at the query start:
   the prefix (ended at or before it) can only impose wash separation,
   answered in O(log n) from the precomputed bound; only the suffix —
   occupations still active near the query, typically a handful — is
   scanned for genuine time overlaps.  Each returns bit-identical
   results to its [_ref] twin: the prefix/suffix split mirrors the
   reference's branch structure exactly, and max-of-differences equals
   difference-of-max because subtracting the same float is monotone. *)

(* A cell with no occupation is answered from its record alone. *)
let conflict_free_at g i iv fluid =
  let cell = g.cells.(i) in
  if cell.blocked then false
  else
    match cell.occs with
    | [] -> true
    | _ :: _ ->
      refresh cell;
      let n = Array.length cell.sorted in
      let r = settled_before cell iv.Interval.lo in
      iv.lo +. 1e-9 >= wash_bound cell r fluid
      &&
      let ok = ref true in
      let i = ref r in
      while !ok && !i < n do
        if Interval.overlaps cell.sorted.(!i).interval iv then ok := false;
        incr i
      done;
      !ok

let conflict_free g xy iv fluid =
  ignore (cell_exn g xy);
  conflict_free_at g (idx g xy) iv fluid

let required_delay g xy iv fluid =
  let cell = cell_exn g xy in
  if cell.blocked then infinity
  else begin
    refresh cell;
    let n = Array.length cell.sorted in
    let rec settle delay fuel =
      if fuel = 0 then delay
      else begin
        let shifted = Interval.shift iv delay in
        let slo = Interval.lo shifted in
        let r = settled_before cell slo in
        (* Prefix: ended occupations whose wash window still covers the
           shifted start. *)
        let bound =
          let m = wash_bound cell r fluid in
          if slo +. 1e-9 < m then m else neg_infinity
        in
        (* Suffix: occupations still active after the shifted start. *)
        let bound = ref bound in
        for i = r to n - 1 do
          let o = cell.sorted.(i) in
          if Interval.overlaps o.interval shifted then
            bound :=
              Float.max !bound
                (Interval.hi o.interval +. wash_between o fluid)
        done;
        let worst =
          if !bound = neg_infinity then 0.
          else Float.max 0. (!bound -. slo)
        in
        if worst <= 1e-9 then delay else settle (delay +. worst) (fuel - 1)
      end
    in
    settle 0. (n + 2)
  end

let wash_debt g xy ~at fluid =
  let cell = cell_exn g xy in
  refresh cell;
  let r = settled_before cell (at +. 1e-9) in
  if r = 0 then 0.
  else begin
    let maxhi = cell.ends.(r - 1) in
    (* First end-sorted slot reaching [maxhi]: the stable sort keeps the
       canonical list order among equal ends, so this is the same
       occupation the reference fold selects. *)
    let lo = ref 0 and hi = ref (r - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cell.ends.(mid) >= maxhi then hi := mid else lo := mid + 1
    done;
    wash_between cell.sorted.(!lo) fluid
  end

let neighbours g (x, y) =
  List.filter (in_bounds g) [ (x - 1, y); (x + 1, y); (x, y - 1); (x, y + 1) ]

let used_cells g =
  let acc = ref [] in
  Array.iteri
    (fun i cell ->
      if cell.occs <> [] then
        acc := (i mod g.grid_width, i / g.grid_width) :: !acc)
    g.cells;
  !acc
