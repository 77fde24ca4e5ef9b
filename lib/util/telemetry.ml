(* Domain-local tracing/metrics core.

   Ownership model: every collector is written by exactly one domain at
   a time (the pool hands tasks their own collectors before dispatch),
   so event emission needs no synchronisation; only the sink's collector
   registry is mutex-protected.  Determinism model: collectors carry a
   track *path* fixed at creation (task index under the parent), and
   every merge — event listing, metric folding — orders collectors by
   that path, never by registration or completion order. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type phase = Complete of float | Sample of float

type event = {
  track : int list;
  seq : int;
  ts_us : float;
  cat : string;
  name : string;
  ph : phase;
  depth : int;
  args : (string * value) list;
}

type summary = { count : int; sum : float; min : float; max : float }

type data = Counter of int | Histogram of summary

type metric = { mcat : string; mname : string; mdata : data }

type hist_acc = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type collector = {
  sink : sink;
  path : int list;
  track_name : string;
  mutable seq : int;
  mutable events : event list; (* reversed *)
  mutable depth : int;
  mutable next_scope : int;
  counters : (string * string, int ref) Hashtbl.t;
  hists : (string * string, hist_acc) Hashtbl.t;
}

and sink = {
  clock : unit -> float;
  epoch : float;
  lock : Mutex.t;
  mutable collectors : collector list; (* registration order; sorted on use *)
}

let make_sink ?(clock = Unix.gettimeofday) () =
  { clock; epoch = clock (); lock = Mutex.create (); collectors = [] }

let new_collector sink ~path ~name =
  let c =
    { sink; path; track_name = name; seq = 0; events = []; depth = 0;
      next_scope = 0;
      counters = Hashtbl.create 16;
      hists = Hashtbl.create 8 }
  in
  Mutex.lock sink.lock;
  sink.collectors <- c :: sink.collectors;
  Mutex.unlock sink.lock;
  c

(* --- global installation + per-domain current collector --- *)

let installed : sink option Atomic.t = Atomic.make None

let dls_current : collector option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get dls_current)

let active () = Atomic.get installed <> None

let installed_sink () = Atomic.get installed

let install sink =
  Atomic.set installed (Some sink);
  Domain.DLS.get dls_current := Some (new_collector sink ~path:[ 0 ] ~name:"main")

let uninstall () =
  Atomic.set installed None;
  Domain.DLS.get dls_current := None

let hook :
    ([ `Open | `Close ] -> depth:int -> string -> unit) option Atomic.t =
  Atomic.make None

let set_span_hook f = Atomic.set hook f

(* --- emission --- *)

let now_us c = (c.sink.clock () -. c.sink.epoch) *. 1e6

let next_seq c =
  let s = c.seq in
  c.seq <- s + 1;
  s

let emit c ~cat ~name ~ts_us ~ph ~depth ~args =
  c.events <-
    { track = c.path; seq = next_seq c; ts_us; cat; name; ph; depth; args }
    :: c.events

let span ?(cat = "span") ?(args = []) name f =
  if not (active ()) then f ()
  else
    match current () with
    | None -> f ()
    | Some c ->
      let ts = now_us c in
      let depth = c.depth in
      c.depth <- depth + 1;
      (match Atomic.get hook with
       | Some h -> h `Open ~depth name
       | None -> ());
      Fun.protect
        ~finally:(fun () ->
          c.depth <- depth;
          emit c ~cat ~name ~ts_us:ts
            ~ph:(Complete (now_us c -. ts))
            ~depth ~args;
          match Atomic.get hook with
          | Some h -> h `Close ~depth name
          | None -> ())
        f

let incr ?(cat = "counter") ?(by = 1) name =
  if active () then
    match current () with
    | None -> ()
    | Some c -> (
      match Hashtbl.find_opt c.counters (cat, name) with
      | Some r -> r := !r + by
      | None -> Hashtbl.add c.counters (cat, name) (ref by))

let sample ?(cat = "counter") name v =
  if active () then
    match current () with
    | None -> ()
    | Some c ->
      emit c ~cat ~name ~ts_us:(now_us c) ~ph:(Sample v) ~depth:c.depth
        ~args:[]

let observe ?(cat = "hist") name v =
  if active () then
    match current () with
    | None -> ()
    | Some c -> (
      match Hashtbl.find_opt c.hists (cat, name) with
      | Some h ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        h.h_min <- Float.min h.h_min v;
        h.h_max <- Float.max h.h_max v
      | None ->
        Hashtbl.add c.hists (cat, name)
          { h_count = 1; h_sum = v; h_min = v; h_max = v })

(* --- task / worker contexts for the pool --- *)

type context = collector option

let task_context () = if active () then current () else None

let is_live = Option.is_some

let with_collector c f =
  let r = Domain.DLS.get dls_current in
  let saved = !r in
  r := Some c;
  Fun.protect ~finally:(fun () -> r := saved) f

let in_task ctx ~label i f =
  match ctx with
  | None -> f ()
  | Some parent ->
    let c =
      new_collector parent.sink ~path:(parent.path @ [ i ])
        ~name:(Printf.sprintf "%s %d" label i)
    in
    with_collector c (fun () ->
        span ~cat:"task"
          ~args:
            [ ("index", Int i);
              ("domain", Int (Domain.self () :> int)) ]
          label f)

let in_worker ctx ~index f =
  match ctx with
  | None -> f ()
  | Some parent ->
    let c =
      new_collector parent.sink ~path:(parent.path @ [ -1 - index ])
        ~name:(Printf.sprintf "worker %d" index)
    in
    with_collector c (fun () -> span ~cat:"pool" "worker" f)

(* --- request subtracks --- *)

(* Scope and subtrack children use a high branch so they cannot collide
   with pool task indices (which are dense from 0) under the same
   parent. *)
let scope_branch = 1_000_000

type subtrack = collector

let subtrack name =
  if not (active ()) then None
  else
    match current () with
    | None -> None
    | Some parent ->
      let branch = scope_branch + parent.next_scope in
      parent.next_scope <- parent.next_scope + 1;
      Some (new_collector parent.sink ~path:(parent.path @ [ branch ]) ~name)

let on_subtrack st f =
  match st with None -> f () | Some c -> with_collector c f

(* --- span trees --- *)

type node = {
  n_name : string;
  n_cat : string;
  n_args : (string * value) list;
  n_dur_us : float;
  n_children : node list;
}

(* Spans close child-before-parent, so a forward walk over the
   emission order sees a parent's whole subtree before the parent:
   the pending suffix deeper than the parent is exactly its children
   (already folded one level at a time). *)
let forest_of_events evs =
  let pending = ref [] (* (depth, node), emission order *) in
  List.iter
    (fun e ->
      match e.ph with
      | Sample _ -> ()
      | Complete dur ->
        let mine, rest =
          List.partition (fun (d, _) -> d > e.depth) !pending
        in
        let node =
          {
            n_name = e.name;
            n_cat = e.cat;
            n_args = e.args;
            n_dur_us = dur;
            n_children = List.map snd mine;
          }
        in
        pending := rest @ [ (e.depth, node) ])
    evs;
  List.map snd !pending

let rec prune_depth limit n =
  if limit <= 0 then { n with n_children = [] }
  else { n with n_children = List.map (prune_depth (limit - 1)) n.n_children }

let value_to_json_v = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let rec node_to_json n =
  Json.Obj
    ([ ("name", Json.String n.n_name); ("cat", Json.String n.n_cat);
       ("dur_us", Json.Float n.n_dur_us) ]
    @ (match n.n_args with
       | [] -> []
       | args ->
         [ ("args",
            Json.Obj (List.map (fun (k, v) -> (k, value_to_json_v v)) args)) ])
    @ (match n.n_children with
       | [] -> []
       | cs -> [ ("children", Json.List (List.map node_to_json cs)) ]))

let rec node_of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let* n_name =
    match Json.member "name" j with
    | Some (Json.String s) -> Ok s
    | _ -> Error "span node: missing string field \"name\""
  in
  let* n_cat =
    match Json.member "cat" j with
    | Some (Json.String s) -> Ok s
    | None -> Ok "span"
    | Some _ -> Error "span node: field \"cat\" must be a string"
  in
  let* n_dur_us =
    match Json.member "dur_us" j with
    | Some (Json.Float f) -> Ok f
    | Some (Json.Int i) -> Ok (float_of_int i)
    | None -> Ok 0.0
    | Some _ -> Error "span node: field \"dur_us\" must be a number"
  in
  let* n_args =
    match Json.member "args" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | (k, Json.Int i) :: rest -> conv ((k, Int i) :: acc) rest
        | (k, Json.Float f) :: rest -> conv ((k, Float f) :: acc) rest
        | (k, Json.String s) :: rest -> conv ((k, Str s) :: acc) rest
        | (k, Json.Bool b) :: rest -> conv ((k, Bool b) :: acc) rest
        | (k, _) :: _ ->
          Error (Printf.sprintf "span node: unsupported arg value for %S" k)
      in
      conv [] kvs
    | Some _ -> Error "span node: field \"args\" must be an object"
  in
  let* n_children =
    match Json.member "children" j with
    | None -> Ok []
    | Some (Json.List cs) ->
      let rec conv acc = function
        | [] -> Ok (List.rev acc)
        | c :: rest ->
          let* n = node_of_json c in
          conv (n :: acc) rest
      in
      conv [] cs
    | Some _ -> Error "span node: field \"children\" must be an array"
  in
  Ok { n_name; n_cat; n_args; n_dur_us; n_children }

let emit_node n =
  if active () then
    match current () with
    | None -> ()
    | Some c ->
      (* post-order: children close before their parent, as live spans
         would have *)
      let rec go rel n =
        List.iter (go (rel + 1)) n.n_children;
        emit c ~cat:n.n_cat ~name:n.n_name ~ts_us:(now_us c)
          ~ph:(Complete n.n_dur_us) ~depth:(c.depth + rel) ~args:n.n_args
      in
      go 0 n

(* --- deterministic merge --- *)

let compare_path (a : int list) (b : int list) = compare a b

let sorted_collectors sink =
  Mutex.lock sink.lock;
  let cols = sink.collectors in
  Mutex.unlock sink.lock;
  List.sort (fun c1 c2 -> compare_path c1.path c2.path) cols

let is_prefix prefix path =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | p :: ps, q :: qs -> p = q && go (ps, qs)
  in
  go (prefix, path)

let merge_metrics cols =
  let counters = Hashtbl.create 32 in
  let hists = Hashtbl.create 16 in
  let merge_one c =
    (* Hashtbl fold order is arbitrary but keys are disjoint per fold
       and every combination below is per-key, so the outcome only
       depends on the [cols] order. *)
    Hashtbl.iter
      (fun k r ->
        match Hashtbl.find_opt counters k with
        | Some acc -> acc := !acc + !r
        | None -> Hashtbl.add counters k (ref !r))
      c.counters;
    Hashtbl.iter
      (fun k (h : hist_acc) ->
        match Hashtbl.find_opt hists k with
        | Some acc ->
          acc.h_count <- acc.h_count + h.h_count;
          acc.h_sum <- acc.h_sum +. h.h_sum;
          acc.h_min <- Float.min acc.h_min h.h_min;
          acc.h_max <- Float.max acc.h_max h.h_max
        | None ->
          Hashtbl.add hists k
            { h_count = h.h_count; h_sum = h.h_sum; h_min = h.h_min;
              h_max = h.h_max })
      c.hists
  in
  List.iter merge_one cols;
  let out = ref [] in
  Hashtbl.iter
    (fun (mcat, mname) r -> out := { mcat; mname; mdata = Counter !r } :: !out)
    counters;
  Hashtbl.iter
    (fun (mcat, mname) h ->
      out :=
        { mcat; mname;
          mdata =
            Histogram
              { count = h.h_count; sum = h.h_sum; min = h.h_min;
                max = h.h_max } }
        :: !out)
    hists;
  List.sort
    (fun a b ->
      let c = compare a.mcat b.mcat in
      if c <> 0 then c else compare a.mname b.mname)
    !out

let with_scope name f =
  if not (active ()) then (f (), [])
  else
    match current () with
    | None -> (f (), [])
    | Some parent ->
      let branch = scope_branch + parent.next_scope in
      parent.next_scope <- parent.next_scope + 1;
      let c =
        new_collector parent.sink ~path:(parent.path @ [ branch ]) ~name
      in
      let v = with_collector c (fun () -> span ~cat:"scope" name f) in
      let descendants =
        List.filter
          (fun col -> is_prefix c.path col.path)
          (sorted_collectors parent.sink)
      in
      (v, merge_metrics descendants)

(* --- export --- *)

let events sink =
  List.concat_map (fun c -> List.rev c.events) (sorted_collectors sink)

let spans ?max_depth sink =
  let forest =
    List.concat_map
      (fun c -> forest_of_events (List.rev c.events))
      (sorted_collectors sink)
  in
  match max_depth with
  | None -> forest
  | Some d -> List.map (prune_depth d) forest

(* Folded stacks: every span contributes its exclusive time (clamped
   to >= 1 µs so virtual-clock traces keep their shape) to the stack
   formed by its collector's ancestry chain plus its span ancestry.
   Aggregation and the final sort make the export a pure function of
   the event tree, never of timing. *)
let to_folded sink =
  let cols = sorted_collectors sink in
  let by_path = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace by_path c.path c.track_name) cols;
  let sanitize s =
    String.map (fun ch -> if ch = ';' || ch = '\n' then ':' else ch) s
  in
  let ancestry path name =
    (* proper prefixes of [path] that name a collector, then [name] *)
    let rec walk prefix acc = function
      | [] | [ _ ] -> List.rev acc
      | x :: rest ->
        let prefix = prefix @ [ x ] in
        let acc =
          match Hashtbl.find_opt by_path prefix with
          | Some n -> sanitize n :: acc
          | None -> acc
        in
        walk prefix acc rest
    in
    walk [] [] path @ [ sanitize name ]
  in
  let acc = Hashtbl.create 64 in
  let bump stack v =
    let key = String.concat ";" stack in
    match Hashtbl.find_opt acc key with
    | Some r -> r := !r + v
    | None -> Hashtbl.add acc key (ref v)
  in
  let rec fold_node stack n =
    let stack = stack @ [ sanitize n.n_name ] in
    let child_sum =
      List.fold_left (fun s c -> s +. c.n_dur_us) 0.0 n.n_children
    in
    let exclusive =
      max 1 (int_of_float (Float.round (n.n_dur_us -. child_sum)))
    in
    bump stack exclusive;
    List.iter (fold_node stack) n.n_children
  in
  List.iter
    (fun c ->
      let prefix = ancestry c.path c.track_name in
      List.iter (fold_node prefix) (forest_of_events (List.rev c.events)))
    cols;
  let lines =
    Hashtbl.fold (fun k r l -> Printf.sprintf "%s %d\n" k !r :: l) acc []
  in
  String.concat "" (List.sort compare lines)

let metrics sink = merge_metrics (sorted_collectors sink)

let counter_total sink ~cat name =
  List.fold_left
    (fun acc m ->
      match m with
      | { mcat; mname; mdata = Counter n } when mcat = cat && mname = name ->
        acc + n
      | _ -> acc)
    0 (metrics sink)

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.String s
  | Bool b -> Json.Bool b

let args_to_json args =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) args)

(* One trace_event record.  [tid] is the dense track id. *)
let event_to_json ~tid e =
  let common =
    [ ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("ts", Json.Float e.ts_us) ]
  in
  match e.ph with
  | Complete dur ->
    Json.Obj
      (common
      @ [ ("ph", Json.String "X"); ("dur", Json.Float dur);
          ("args", args_to_json e.args) ])
  | Sample v ->
    Json.Obj
      (common
      @ [ ("ph", Json.String "C");
          ("args", Json.Obj [ ("value", Json.Float v) ]) ])

let track_ids sink =
  let cols = sorted_collectors sink in
  let tbl = Hashtbl.create 16 in
  let names = ref [] in
  List.iter
    (fun c ->
      if not (Hashtbl.mem tbl c.path) then begin
        let tid = Hashtbl.length tbl in
        Hashtbl.add tbl c.path tid;
        names := (tid, c.track_name) :: !names
      end)
    cols;
  (tbl, List.rev !names)

let to_chrome_json ?(process_name = "dcsa-synth") sink =
  let tids, names = track_ids sink in
  let meta =
    Json.Obj
      [ ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String process_name) ]) ]
    :: List.map
         (fun (tid, name) ->
           Json.Obj
             [ ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.String name) ]) ])
         names
  in
  let evs =
    List.map
      (fun e -> event_to_json ~tid:(Hashtbl.find tids e.track) e)
      (events sink)
  in
  Json.Obj
    [ ("traceEvents", Json.List (meta @ evs));
      ("displayTimeUnit", Json.String "ms") ]

(* --- metric rendering --- *)

let summary_mean s = if s.count = 0 then Float.nan else s.sum /. float s.count

let metric_value_string = function
  | Counter n -> string_of_int n
  | Histogram s ->
    Printf.sprintf "n=%d mean=%.4g min=%g max=%g" s.count (summary_mean s)
      s.min s.max

let metrics_to_json ms =
  Json.Obj
    (List.map
       (fun m ->
         let v =
           match m.mdata with
           | Counter n -> Json.Int n
           | Histogram s ->
             Json.Obj
               [ ("count", Json.Int s.count);
                 ("sum", Json.Float s.sum);
                 ("min", Json.Float s.min);
                 ("max", Json.Float s.max) ]
         in
         (m.mcat ^ "/" ^ m.mname, v))
       ms)
