type ('p, 'a) t = {
  cmp : 'p -> 'p -> int;
  mutable data : ('p * 'a) array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }

let length q = q.size

(* Slots beyond [size] are never read, so any existing binding serves as
   filler; the empty-array case is handled at the push site. *)
let grow q filler =
  let capacity = Array.length q.data in
  if q.size >= capacity then
    if capacity = 0 then q.data <- Array.make 16 filler
    else begin
      let data = Array.make (2 * capacity) q.data.(0) in
      Array.blit q.data 0 data 0 q.size;
      q.data <- data
    end

let swap q i j =
  let tmp = q.data.(i) in
  q.data.(i) <- q.data.(j);
  q.data.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let pi, _ = q.data.(i) and pp, _ = q.data.(parent) in
    if q.cmp pi pp < 0 then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  let prio j = fst q.data.(j) in
  if left < q.size && q.cmp (prio left) (prio !smallest) < 0 then
    smallest := left;
  if right < q.size && q.cmp (prio right) (prio !smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push q p x =
  grow q (p, x);
  q.data.(q.size) <- (p, x);
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let root = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q 0
    end;
    Some root
  end
