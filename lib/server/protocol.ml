module Json = Mfb_util.Json

type spec =
  | Benchmark of string
  | Assay of { text : string; alloc : (int * int * int * int) option }

type overrides = {
  o_seed : int option;
  o_tc : float option;
  o_sa_restarts : int option;
  o_backend : Mfb_schedule.Portfolio.backend option;
}

let no_overrides =
  { o_seed = None; o_tc = None; o_sa_restarts = None; o_backend = None }

type request =
  | Submit of {
      id : string;
      priority : int;
      deadline : int option;
      flow : [ `Ours | `Ba ];
      spec : spec;
      overrides : overrides;
      trace : string option;
    }
  | Status of string
  | Result of string
  | Repair of {
      id : string;
      target : string;
      defects : Mfb_repair.Defect.target list;
    }
  | Stats
  | Stats_prom
  | Shutdown

type response =
  | Submitted of { id : string; key : string }
  | Rejected of { op : string; id : string; reason : string }
  | Job_status of { id : string; state : string }
  | Job_result of {
      id : string;
      key : string;
      result : Json.t;
      spans : Json.t option;
    }
  | Repair_result of {
      id : string;
      target : string;
      key : string;
      warm : bool;
      report : Json.t;
    }
  | Stats_reply of Json.t
  | Stats_text of string
  | Goodbye of Json.t
  | Bad_request of { id : string option; message : string }

(* --- writers --- *)

let request_to_json = function
  | Submit { id; priority; deadline; flow; spec; overrides; trace } ->
    let spec_fields =
      match spec with
      | Benchmark b -> [ ("benchmark", Json.String b) ]
      | Assay { text; alloc } ->
        ("assay", Json.String text)
        ::
        (match alloc with
         | None -> []
         | Some (m, h, f, d) ->
           [ ("alloc", Json.List (List.map (fun i -> Json.Int i) [ m; h; f; d ])) ])
    in
    let opt name to_j = function
      | None -> []
      | Some v -> [ (name, to_j v) ]
    in
    Json.Obj
      ([ ("op", Json.String "submit"); ("id", Json.String id) ]
      @ spec_fields
      @ (if priority = 0 then [] else [ ("priority", Json.Int priority) ])
      @ opt "deadline" (fun d -> Json.Int d) deadline
      @ (match flow with
         | `Ours -> []
         | `Ba -> [ ("flow", Json.String "ba") ])
      @ opt "seed" (fun s -> Json.Int s) overrides.o_seed
      @ opt "tc" (fun t -> Json.Float t) overrides.o_tc
      @ opt "sa_restarts" (fun r -> Json.Int r) overrides.o_sa_restarts
      @ opt "backend"
          (fun b ->
            Json.String (Mfb_schedule.Portfolio.backend_to_string b))
          overrides.o_backend
      @ opt "trace" (fun t -> Json.String t) trace)
  | Status id ->
    Json.Obj [ ("op", Json.String "status"); ("id", Json.String id) ]
  | Result id ->
    Json.Obj [ ("op", Json.String "result"); ("id", Json.String id) ]
  | Repair { id; target; defects } ->
    Json.Obj
      [ ("op", Json.String "repair"); ("id", Json.String id);
        ("target", Json.String target);
        ( "defects",
          Json.List (List.map Mfb_repair.Defect.target_to_json defects) ) ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Stats_prom ->
    Json.Obj
      [ ("op", Json.String "stats"); ("format", Json.String "prometheus") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let response_to_json = function
  | Submitted { id; key } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "submit");
        ("id", Json.String id); ("key", Json.String key) ]
  | Rejected { op; id; reason } ->
    Json.Obj
      [ ("ok", Json.Bool false); ("op", Json.String op);
        ("id", Json.String id); ("reason", Json.String reason) ]
  | Job_status { id; state } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "status");
        ("id", Json.String id); ("state", Json.String state) ]
  | Job_result { id; key; result; spans } ->
    Json.Obj
      ([ ("ok", Json.Bool true); ("op", Json.String "result");
         ("id", Json.String id); ("key", Json.String key);
         ("result", result) ]
      @ (match spans with None -> [] | Some s -> [ ("spans", s) ]))
  | Repair_result { id; target; key; warm; report } ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "repair");
        ("id", Json.String id); ("target", Json.String target);
        ("key", Json.String key); ("warm", Json.Bool warm);
        ("report", report) ]
  | Stats_reply stats ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "stats");
        ("stats", stats) ]
  | Stats_text text ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "stats");
        ("format", Json.String "prometheus"); ("text", Json.String text) ]
  | Goodbye stats ->
    Json.Obj
      [ ("ok", Json.Bool true); ("op", Json.String "shutdown");
        ("stats", stats) ]
  | Bad_request { id; message } ->
    Json.Obj
      ([ ("ok", Json.Bool false); ("op", Json.String "error") ]
      @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
      @ [ ("message", Json.String message) ])

(* --- readers --- *)

let field k v = Json.member k v

let string_field k v =
  match field k v with
  | Some (Json.String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let opt_int_field k v =
  match field k v with
  | None -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" k)

let opt_float_field k v =
  match field k v with
  | None -> Ok None
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" k)

let ( let* ) = Stdlib.Result.bind

let parse_spec v =
  match (field "benchmark" v, field "assay" v) with
  | Some _, Some _ -> Error "use either \"benchmark\" or \"assay\", not both"
  | Some (Json.String b), None -> Ok (Benchmark b)
  | Some _, None -> Error "field \"benchmark\" must be a string"
  | None, Some (Json.String text) ->
    let* alloc =
      match field "alloc" v with
      | None -> Ok None
      | Some (Json.List [ Json.Int m; Json.Int h; Json.Int f; Json.Int d ]) ->
        Ok (Some (m, h, f, d))
      | Some _ -> Error "field \"alloc\" must be [m,h,f,d]"
    in
    Ok (Assay { text; alloc })
  | None, Some _ -> Error "field \"assay\" must be a string"
  | None, None -> Error "submit needs \"benchmark\" or \"assay\""

let parse_submit v =
  let* id = string_field "id" v in
  let* spec = parse_spec v in
  let* priority = opt_int_field "priority" v in
  let* deadline = opt_int_field "deadline" v in
  let* flow =
    match field "flow" v with
    | None | Some (Json.String "ours") -> Ok `Ours
    | Some (Json.String "ba") -> Ok `Ba
    | Some _ -> Error "field \"flow\" must be \"ours\" or \"ba\""
  in
  let* o_seed = opt_int_field "seed" v in
  let* o_tc = opt_float_field "tc" v in
  let* o_sa_restarts = opt_int_field "sa_restarts" v in
  let* o_backend =
    match field "backend" v with
    | None -> Ok None
    | Some (Json.String s) ->
      (match Mfb_schedule.Portfolio.backend_of_string s with
       | Some b -> Ok (Some b)
       | None ->
         Error "field \"backend\" must be \"heuristic\", \"exact\" or \
                \"portfolio\"")
    | Some _ -> Error "field \"backend\" must be a string"
  in
  let* trace =
    match field "trace" v with
    | None -> Ok None
    | Some (Json.String t) -> Ok (Some t)
    | Some _ -> Error "field \"trace\" must be a string"
  in
  Ok
    (Submit
       {
         id;
         priority = Option.value priority ~default:0;
         deadline;
         flow;
         spec;
         overrides = { o_seed; o_tc; o_sa_restarts; o_backend };
         trace;
       })

let request_of_json v =
  let* op = string_field "op" v in
  match op with
  | "submit" -> parse_submit v
  | "status" ->
    let* id = string_field "id" v in
    Ok (Status id)
  | "result" ->
    let* id = string_field "id" v in
    Ok (Result id)
  | "repair" ->
    let* id = string_field "id" v in
    let* target = string_field "target" v in
    let* defects =
      match field "defects" v with
      | Some (Json.List entries) ->
        let* rev =
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* t = Mfb_repair.Defect.target_of_json e in
              Ok (t :: acc))
            (Ok []) entries
        in
        if rev = [] then Error "field \"defects\" must be non-empty"
        else Ok (List.rev rev)
      | Some _ -> Error "field \"defects\" must be an array"
      | None -> Error "missing field \"defects\""
    in
    Ok (Repair { id; target; defects })
  | "stats" ->
    (match field "format" v with
     | None -> Ok Stats
     | Some (Json.String "prometheus") -> Ok Stats_prom
     | Some (Json.String "json") -> Ok Stats
     | Some _ -> Error "field \"format\" must be \"json\" or \"prometheus\"")
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line line =
  let* v = Json.of_string line in
  request_of_json v

let request_to_line r = Json.to_string (request_to_json r)

let response_of_json v =
  let* ok =
    match field "ok" v with
    | Some (Json.Bool b) -> Ok b
    | _ -> Error "missing boolean field \"ok\""
  in
  let* op = string_field "op" v in
  let id_opt =
    match field "id" v with Some (Json.String s) -> Some s | _ -> None
  in
  if not ok then
    match op with
    | "error" ->
      let* message = string_field "message" v in
      Ok (Bad_request { id = id_opt; message })
    | op ->
      let* id = string_field "id" v in
      let* reason = string_field "reason" v in
      Ok (Rejected { op; id; reason })
  else
    match op with
    | "submit" ->
      let* id = string_field "id" v in
      let* key = string_field "key" v in
      Ok (Submitted { id; key })
    | "status" ->
      let* id = string_field "id" v in
      let* state = string_field "state" v in
      Ok (Job_status { id; state })
    | "result" ->
      let* id = string_field "id" v in
      let* key = string_field "key" v in
      (match field "result" v with
       | Some result ->
         Ok (Job_result { id; key; result; spans = field "spans" v })
       | None -> Error "missing field \"result\"")
    | "repair" ->
      let* id = string_field "id" v in
      let* target = string_field "target" v in
      let* key = string_field "key" v in
      let* warm =
        match field "warm" v with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "missing boolean field \"warm\""
      in
      (match field "report" v with
       | Some report -> Ok (Repair_result { id; target; key; warm; report })
       | None -> Error "missing field \"report\"")
    | "stats" ->
      (match (field "stats" v, field "text" v) with
       | Some stats, _ -> Ok (Stats_reply stats)
       | None, Some (Json.String text) -> Ok (Stats_text text)
       | None, _ -> Error "missing field \"stats\"")
    | "shutdown" ->
      (match field "stats" v with
       | Some stats -> Ok (Goodbye stats)
       | None -> Error "missing field \"stats\"")
    | op -> Error (Printf.sprintf "unknown response op %S" op)

let response_to_line r = Json.to_string (response_to_json r)

let response_of_line line =
  let* v = Json.of_string line in
  response_of_json v

let default_max_line_bytes = 1 lsl 20
