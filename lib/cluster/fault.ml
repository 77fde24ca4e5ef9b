module Json = Mfb_util.Json

type kind = Crash | Stall | Garbage | Truncate | Slow of float

type entry = { worker : int; job : int; kind : kind }

type plan = entry list

let empty = []

let lookup p ~worker ~job =
  List.find_map
    (fun e -> if e.worker = worker && e.job = job then Some e.kind else None)
    p

let kind_name = function
  | Crash -> "crash"
  | Stall -> "stall"
  | Garbage -> "garbage"
  | Truncate -> "truncate"
  | Slow _ -> "slow"

let entry_to_json e =
  Json.Obj
    ([ ("worker", Json.Int e.worker);
       ("job", Json.Int e.job);
       ("kind", Json.String (kind_name e.kind)) ]
    @ match e.kind with
      | Slow s -> [ ("seconds", Json.Float s) ]
      | _ -> [])

let to_json p = Json.Obj [ ("faults", Json.List (List.map entry_to_json p)) ]

let ( let* ) = Stdlib.Result.bind

let int_field k v =
  match Json.member k v with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "fault entry: missing integer field %S" k)

let entry_of_json v =
  let* worker = int_field "worker" v in
  let* job = int_field "job" v in
  let* () =
    if worker < 0 || job < 0 then Error "fault entry: negative worker or job"
    else Ok ()
  in
  let* kind =
    match Json.member "kind" v with
    | Some (Json.String "crash") -> Ok Crash
    | Some (Json.String "stall") -> Ok Stall
    | Some (Json.String "garbage") -> Ok Garbage
    | Some (Json.String "truncate") -> Ok Truncate
    | Some (Json.String "slow") ->
      (match Json.member "seconds" v with
       | Some (Json.Float s) -> Ok (Slow s)
       | Some (Json.Int s) -> Ok (Slow (float_of_int s))
       | _ -> Error "fault entry: slow needs a \"seconds\" field")
    | Some (Json.String k) ->
      Error (Printf.sprintf "fault entry: unknown kind %S" k)
    | _ -> Error "fault entry: missing string field \"kind\""
  in
  Ok { worker; job; kind }

let of_json v =
  match Json.member "faults" v with
  | Some (Json.List entries) ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* entry = entry_of_json e in
        Ok (entry :: acc))
      (Ok []) entries
    |> Stdlib.Result.map List.rev
  | Some _ -> Error "fault plan: \"faults\" is not an array"
  | None -> Error "fault plan: no \"faults\" array"

let to_file path p =
  Out_channel.with_open_text path (fun oc ->
      Json.to_channel ~indent:1 oc (to_json p))

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
    let* v = Json.of_string contents in
    of_json v
  | exception Sys_error msg -> Error msg
