type weighted_net = { a : int; b : int; cp : float }

let weigh ~beta ~gamma nets =
  List.map
    (fun (net : Net.t) ->
      { a = net.a; b = net.b;
        cp = Net.connection_priority ~beta ~gamma net })
    nets

let uniform nets =
  List.map (fun (net : Net.t) -> { a = net.a; b = net.b; cp = 1.0 }) nets

let total chip nets =
  List.fold_left
    (fun acc { a; b; cp } -> acc +. (Chip.manhattan chip a b *. cp))
    0. nets

let wirelength chip nets =
  List.fold_left
    (fun acc { a; b; cp = _ } -> acc +. Chip.manhattan chip a b)
    0. nets

let compaction chip =
  let n = Array.length chip.Chip.components in
  let total = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      total := !total +. Chip.manhattan chip i j
    done
  done;
  !total

(* Net-adjacency index: nets flattened to arrays plus, per component, the
   ids of its incident nets.  A per-net stamp deduplicates nets incident
   to both components of a query without allocating a set. *)
type index = {
  na : int array;
  nb : int array;
  ncp : float array;
  incident : int array array;
  stamp : int array;
  mutable round : int;
  mutable terms : int;
}

let index ~n_components nets =
  let nets = Array.of_list nets in
  let m = Array.length nets in
  let na = Array.make m 0 and nb = Array.make m 0 and ncp = Array.make m 0. in
  Array.iteri
    (fun k { a; b; cp } ->
      na.(k) <- a;
      nb.(k) <- b;
      ncp.(k) <- cp)
    nets;
  let counts = Array.make n_components 0 in
  for k = 0 to m - 1 do
    counts.(na.(k)) <- counts.(na.(k)) + 1;
    if nb.(k) <> na.(k) then counts.(nb.(k)) <- counts.(nb.(k)) + 1
  done;
  let incident = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make n_components 0 in
  for k = 0 to m - 1 do
    incident.(na.(k)).(fill.(na.(k))) <- k;
    fill.(na.(k)) <- fill.(na.(k)) + 1;
    if nb.(k) <> na.(k) then begin
      incident.(nb.(k)).(fill.(nb.(k))) <- k;
      fill.(nb.(k)) <- fill.(nb.(k)) + 1
    end
  done;
  { na; nb; ncp; incident; stamp = Array.make m (-1); round = 0; terms = 0 }

(* The nets of [i], then those of [j] not yet counted; each term is
   [Chip.manhattan] times cp, with the centres read from [cx], [cy]. *)
let incident_total t cx cy i j =
  t.round <- t.round + 1;
  let r = t.round in
  let sum = ref 0. in
  for pass = 0 to if j = i then 0 else 1 do
    let nets = t.incident.(if pass = 0 then i else j) in
    for q = 0 to Array.length nets - 1 do
      let k = nets.(q) in
      if t.stamp.(k) <> r then begin
        t.stamp.(k) <- r;
        let a = t.na.(k) and b = t.nb.(k) in
        sum :=
          !sum
          +. (Float.abs (cx.(a) -. cx.(b)) +. Float.abs (cy.(a) -. cy.(b)))
             *. t.ncp.(k);
        t.terms <- t.terms + 1
      end
    done
  done;
  !sum
