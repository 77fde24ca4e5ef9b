module Interval = Mfb_util.Interval
module Fluid = Mfb_bioassay.Fluid

type occupation = { interval : Interval.t; fluid : Fluid.t }

(* Per-cell occupation index, kept current by [add_occupation]:

   - the first [n] entries of [sorted] are the occupations ordered by
     (interval end, position in the canonical list), and [ends] holds
     their interval ends — binary search splits any query into a
     "settled past" prefix (hi <= t) and a small "active tail" suffix;
   - entries [i] of [v1], [f1] and [v2] are over the first [i + 1]
     sorted occupations: the largest end-plus-wash bound
     [B(o) = hi(o) +. wash_time(o.fluid)], a fluid that reaches it, and
     the largest bound of a fluid other than [f1] ([neg_infinity] for
     none).  The wash constraint against a query fluid [f] needs
     [max B(o)] over prior occupations whose fluid differs from [f];
     that is [v1] when [f1] differs from [f] and [v2] otherwise
     (same-fluid priors need no wash).

   The arrays grow by doubling; their entries from [n] on are spare. *)
type cell = {
  mutable weight : float;
  mutable occs : occupation list; (* sorted by interval start *)
  blocked : bool;
  mutable n : int;
  mutable sorted : occupation array;
  mutable ends : float array;
  mutable v1 : float array;
  mutable f1 : Fluid.t array;
  mutable v2 : float array;
}

type t = {
  grid_width : int;
  grid_height : int;
  cells : cell array;
  ports : (int * int) list array; (* per component id, non-empty *)
}

(* The slack of every time comparison in the conflict model: a gap or a
   residual delay of at most this much counts as none. *)
let tolerance = 1e-9

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
          n = 0; sorted = [||]; ends = [||]; v1 = [||]; f1 = [||];
          v2 = [||] })
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

(* ---- Index maintenance ---------------------------------------------- *)

(* Room for one more index entry: every array doubles (to at least 4),
   keeping its first [n] entries. *)
let grow cell occ =
  let cap = max 4 (2 * cell.n) in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 cell.n;
    b
  in
  cell.sorted <- widen cell.sorted occ;
  cell.ends <- widen cell.ends 0.;
  cell.v1 <- widen cell.v1 0.;
  cell.f1 <- widen cell.f1 occ.fluid;
  cell.v2 <- widen cell.v2 0.

(* The slot of a new occupation in [sorted]: after every smaller
   interval end and, among equal ends, before the first entry [e] with
   [Interval.compare occ e <= 0].  Equal ends keep the canonical list's
   order, in which the new occupation goes before exactly those
   entries, so this is where a stable sort of the list by end puts it;
   [wash_debt]'s tie-break depends on that order. *)
let slot cell occ =
  let hi = occ.interval.hi in
  let lo = ref 0 and up = ref cell.n in
  while !lo < !up do
    let mid = (!lo + !up) / 2 in
    if cell.ends.(mid) < hi then lo := mid + 1 else up := mid
  done;
  let k = ref !lo in
  while
    !k < cell.n
    && cell.ends.(!k) = hi
    && Interval.compare occ.interval cell.sorted.(!k).interval > 0
  do
    incr k
  done;
  !k

(* The prefix maxima from slot [k] on, each from the one before it. *)
let rescan cell k =
  for i = k to cell.n - 1 do
    let o = cell.sorted.(i) in
    let b = o.interval.hi +. Fluid.wash_time o.fluid in
    let first = i = 0 in
    let v1 = if first then neg_infinity else cell.v1.(i - 1)
    and f1 = if first then o.fluid else cell.f1.(i - 1)
    and v2 = if first then neg_infinity else cell.v2.(i - 1) in
    if Fluid.equal o.fluid f1 then begin
      cell.v1.(i) <- Float.max v1 b;
      cell.f1.(i) <- f1;
      cell.v2.(i) <- v2
    end
    else if b > v1 then begin
      cell.v1.(i) <- b;
      cell.f1.(i) <- o.fluid;
      cell.v2.(i) <- v1
    end
    else begin
      cell.v1.(i) <- v1;
      cell.f1.(i) <- f1;
      cell.v2.(i) <- Float.max v2 b
    end
  done

let add_occupation g xy occ =
  let cell = cell_exn g xy in
  let rec insert = function
    | [] -> [ occ ]
    | o :: rest as all ->
      if Interval.compare occ.interval o.interval <= 0 then occ :: all
      else o :: insert rest
  in
  cell.occs <- insert cell.occs;
  if cell.n = Array.length cell.sorted then grow cell occ;
  let k = slot cell occ in
  Array.blit cell.sorted k cell.sorted (k + 1) (cell.n - k);
  Array.blit cell.ends k cell.ends (k + 1) (cell.n - k);
  cell.sorted.(k) <- occ;
  cell.ends.(k) <- occ.interval.hi;
  cell.n <- cell.n + 1;
  rescan cell k

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

(* ---- Index queries -------------------------------------------------- *)

(* Number of occupations whose interval end is [<= t]: upper bound by
   binary search on the end-sorted array. *)
let[@inline] settled_before cell t =
  let lo = ref 0 and hi = ref cell.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cell.ends.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* [max (hi o +. wash_time o.fluid)] over the first [r] end-sorted
   occupations whose fluid differs from [fluid]; [neg_infinity] when no
   such occupation exists.  Inlined, so the float it reads is never
   boxed. *)
let[@inline] wash_bound cell r fluid =
  if r = 0 then neg_infinity
  else if Fluid.equal cell.f1.(r - 1) fluid then cell.v2.(r - 1)
  else cell.v1.(r - 1)

(* ---- Reference implementations (retained for differential tests) ---- *)

let conflict_free_ref g xy iv fluid =
  let cell = cell_exn g xy in
  (not cell.blocked)
  && List.for_all
       (fun o ->
         if Interval.overlaps o.interval iv then false
         else if Interval.hi o.interval <= Interval.lo iv then
           Interval.lo iv +. tolerance
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
                      && Interval.lo shifted +. tolerance
                         < Interval.hi o.interval +. wash_between o fluid)
                then
                  Interval.hi o.interval +. wash_between o fluid
                  -. Interval.lo shifted
                else 0.
              in
              Float.max acc needed)
            0. cell.occs
        in
        if worst <= tolerance then delay else settle (delay +. worst) (fuel - 1)
      end
    in
    settle 0. (List.length cell.occs + 2)
  end

let wash_debt_ref g xy ~at fluid =
  let cell = cell_exn g xy in
  let latest_prior =
    List.fold_left
      (fun acc o ->
        if Interval.hi o.interval <= at +. tolerance then
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
  else if cell.n = 0 then true
  else begin
    let r = settled_before cell iv.Interval.lo in
    iv.lo +. tolerance >= wash_bound cell r fluid
    &&
    let ok = ref true in
    let i = ref r in
    while !ok && !i < cell.n do
      if Interval.overlaps cell.sorted.(!i).interval iv then ok := false;
      incr i
    done;
    !ok
  end

let conflict_free g xy iv fluid =
  ignore (cell_exn g xy);
  conflict_free_at g (idx g xy) iv fluid

let required_delay g xy iv fluid =
  let cell = cell_exn g xy in
  if cell.blocked then infinity
  else begin
    let n = cell.n in
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
          if slo +. tolerance < m then m else neg_infinity
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
        if worst <= tolerance then delay else settle (delay +. worst) (fuel - 1)
      end
    in
    settle 0. (n + 2)
  end

let wash_debt g xy ~at fluid =
  let cell = cell_exn g xy in
  let r = settled_before cell (at +. tolerance) in
  if r = 0 then 0.
  else begin
    let maxhi = cell.ends.(r - 1) in
    (* First end-sorted slot reaching [maxhi]: equal ends keep the
       canonical list order, so this is the same occupation the
       reference fold selects. *)
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
