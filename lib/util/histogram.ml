(* Fixed-layout geometric histogram.  Every instance shares the same
   bucket boundaries, so a bucket index names the same value range in
   every histogram. *)

let gamma = Float.pow 2.0 0.25

let log_gamma = Float.log gamma

(* Clamped index range: gamma^(-128) = 2^-32 ~ 2.3e-10 up to
   gamma^176 = 2^44 ~ 1.8e13 — generous for ticks, microseconds and
   milliseconds alike.  Indices are offset by [-lo] into the array. *)
let lo = -128

let hi = 175

let n_buckets = hi - lo + 1

type t = {
  counts : int array; (* length n_buckets *)
  mutable zero : int; (* observations <= 0 *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Array.make n_buckets 0;
    zero = 0;
    count = 0;
    sum = 0.0;
    min_v = Float.infinity;
    max_v = Float.neg_infinity;
  }

let bucket_index v =
  if v <= 0.0 then min_int
  else
    let k = int_of_float (Float.floor (Float.log v /. log_gamma)) in
    if k < lo then lo else if k > hi then hi else k

let upper_bound k = Float.exp (float_of_int (k + 1) *. log_gamma)

let add t v =
  if not (Float.is_nan v) then begin
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    match bucket_index v with
    | k when k = min_int -> t.zero <- t.zero + 1
    | k -> t.counts.(k - lo) <- t.counts.(k - lo) + 1
  end

let count t = t.count

let sum t = t.sum

let min_value t = if t.count = 0 then 0.0 else t.min_v

let max_value t = if t.count = 0 then 0.0 else t.max_v

let quantile t q =
  if t.count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    if rank <= t.zero then 0.0
    else begin
      let cum = ref t.zero in
      let res = ref (max_value t) in
      (try
         for i = 0 to n_buckets - 1 do
           cum := !cum + t.counts.(i);
           if !cum >= rank then begin
             res := upper_bound (i + lo);
             raise Exit
           end
         done
       with Exit -> ());
      !res
    end
  end

(* Occupied buckets in ascending order as (upper bound, count); the
   zero bucket reports upper bound 0. *)
let buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := (upper_bound (i + lo), t.counts.(i)) :: !acc
  done;
  if t.zero > 0 then (0.0, t.zero) :: !acc else !acc

(* %.17g keeps float round-trips exact; %g would lose bits of [sum]. *)
let float_json v = Json.Float v

let snapshot_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", float_json t.sum);
      ("min", float_json (min_value t));
      ("max", float_json (max_value t));
      ("p50", float_json (quantile t 0.50));
      ("p95", float_json (quantile t 0.95));
      ("p99", float_json (quantile t 0.99));
    ]

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

(* Prometheus text-exposition escaping: label values escape backslash,
   double-quote and newline; HELP text escapes backslash and newline.
   Without this a label value holding a quote (or a help text holding a
   newline) splits a series line and the whole scrape fails to parse. *)
let escape_with ~quote s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_label s = escape_with ~quote:true s
let escape_help s = escape_with ~quote:false s

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
           labels)
    ^ "}"

let prometheus ?help ?(labels = []) ?(header = true) ~name buf t =
  if header then begin
    (match help with
     | Some h ->
       Buffer.add_string buf
         (Printf.sprintf "# HELP %s %s\n" name (escape_help h))
     | None -> ());
    Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name)
  end;
  let fixed = render_labels labels in
  let bucket_labels ub =
    render_labels (labels @ [ ("le", ub) ])
  in
  let cum = ref 0 in
  List.iter
    (fun (ub, n) ->
      cum := !cum + n;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" name
           (bucket_labels (prom_float ub))
           !cum))
    (buckets t);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket%s %d\n" name (bucket_labels "+Inf") t.count);
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %s\n" name fixed (prom_float t.sum));
  Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" name fixed t.count)
