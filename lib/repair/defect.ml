module Json = Mfb_util.Json
module Chip = Mfb_place.Chip

type target = Cell of (int * int) | Component of int

type event = { tick : int; target : target }

type plan = event list

let targets p = List.map (fun e -> e.target) p

let upto p ~tick =
  List.filter_map
    (fun e -> if e.tick <= tick then Some e.target else None)
    p

let target_to_string = function
  | Cell (x, y) -> Printf.sprintf "cell(%d,%d)" x y
  | Component c -> Printf.sprintf "component(%d)" c

let target_to_json = function
  | Cell (x, y) ->
    Json.Obj
      [ ("kind", Json.String "cell"); ("x", Json.Int x); ("y", Json.Int y) ]
  | Component c ->
    Json.Obj [ ("kind", Json.String "component"); ("id", Json.Int c) ]

let ( let* ) = Stdlib.Result.bind

let int_field k v =
  match Json.member k v with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "defect entry: missing integer field %S" k)

let target_of_json v =
  match Json.member "kind" v with
  | Some (Json.String "cell") ->
    let* x = int_field "x" v in
    let* y = int_field "y" v in
    Ok (Cell (x, y))
  | Some (Json.String "component") ->
    let* id = int_field "id" v in
    if id < 0 then Error "defect entry: negative component id"
    else Ok (Component id)
  | Some (Json.String k) ->
    Error (Printf.sprintf "defect entry: unknown kind %S" k)
  | _ -> Error "defect entry: missing string field \"kind\""

let event_to_json e =
  match target_to_json e.target with
  | Json.Obj fields -> Json.Obj (("tick", Json.Int e.tick) :: fields)
  | other -> other

let event_of_json v =
  let* tick =
    match Json.member "tick" v with
    | Some (Json.Int t) ->
      if t < 0 then Error "defect entry: negative tick" else Ok t
    | None -> Ok 0
    | Some _ -> Error "defect entry: \"tick\" is not an integer"
  in
  let* target = target_of_json v in
  Ok { tick; target }

let to_json p = Json.Obj [ ("defects", Json.List (List.map event_to_json p)) ]

let of_json v =
  match Json.member "defects" v with
  | Some (Json.List entries) ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* ev = event_of_json e in
        Ok (ev :: acc))
      (Ok []) entries
    |> Stdlib.Result.map List.rev
  | Some _ -> Error "defect plan: \"defects\" is not an array"
  | None -> Error "defect plan: no \"defects\" array"

let to_file path p =
  Out_channel.with_open_text path (fun oc ->
      Json.to_channel ~indent:1 oc (to_json p))

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
    let* v = Json.of_string contents in
    of_json v
  | exception Sys_error msg -> Error msg

let check (chip : Chip.t) p =
  List.fold_left
    (fun acc e ->
      let* () = acc in
      match e.target with
      | Cell (x, y) ->
        if x < 0 || y < 0 || x >= chip.width || y >= chip.height then
          Error
            (Printf.sprintf "defect cell (%d,%d) outside the %dx%d chip" x y
               chip.width chip.height)
        else Ok ()
      | Component c ->
        if c < 0 || c >= Array.length chip.components then
          Error
            (Printf.sprintf "defect component %d not allocated (%d on chip)"
               c
               (Array.length chip.components))
        else Ok ())
    (Ok ()) p

(* The component whose footprint covers a cell, or [None] for a channel
   cell. *)
let owner (chip : Chip.t) (cx, cy) =
  let n = Array.length chip.components in
  let rec scan i =
    if i >= n then None
    else
      let x, y, w, h = Chip.footprint chip i in
      if cx >= x && cx < x + w && cy >= y && cy < y + h then Some i
      else scan (i + 1)
  in
  scan 0

let normalize chip raw =
  let cells, comps =
    List.fold_left
      (fun (cells, comps) t ->
        match t with
        | Cell (x, y) ->
          (match owner chip (x, y) with
           | Some c -> (cells, c :: comps)
           | None -> ((x, y) :: cells, comps))
        | Component c -> (cells, c :: comps))
      ([], []) raw
  in
  (List.sort_uniq compare cells, List.sort_uniq compare comps)

let cells (chip : Chip.t) =
  let acc = ref [] in
  for y = chip.height - 1 downto 0 do
    for x = chip.width - 1 downto 0 do
      if owner chip (x, y) = None then acc := (x, y) :: !acc
    done
  done;
  !acc

(* Generators.  One fresh [Random.State] per call, seeded from the
   caller's seed and a fixed tag, so the plan is a pure function of
   (seed, chip). *)

let rng_of seed = Random.State.make [| 0x64656663; seed |]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let single_cell ~seed chip =
  match cells chip with
  | [] -> []
  | cells ->
    let x, y = pick (rng_of seed) cells in
    [ { tick = 0; target = Cell (x, y) } ]

let clustered ~seed ~radius chip =
  if radius < 0 then invalid_arg "Defect.clustered: negative radius";
  match cells chip with
  | [] -> []
  | cells ->
    let cx, cy = pick (rng_of seed) cells in
    List.filter_map
      (fun (x, y) ->
        if abs (x - cx) + abs (y - cy) <= radius then
          Some { tick = 0; target = Cell (x, y) }
        else None)
      cells

let progressive ~seed ~count chip =
  if count < 0 then invalid_arg "Defect.progressive: negative count";
  let cells = Array.of_list (cells chip) in
  let n = Array.length cells in
  if n = 0 then []
  else begin
    (* Seeded Fisher-Yates, then the first [count] cells in shuffle
       order fail on consecutive ticks. *)
    let rng = rng_of seed in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = cells.(i) in
      cells.(i) <- cells.(j);
      cells.(j) <- t
    done;
    List.init (min count n) (fun tick ->
        let x, y = cells.(tick) in
        { tick; target = Cell (x, y) })
  end

let component_fault ~seed (chip : Chip.t) =
  match Array.length chip.components with
  | 0 -> []
  | n ->
    [ { tick = 0; target = Component (Random.State.int (rng_of seed) n) } ]
