type error = { line : int; message : string }

exception Parse_error of error

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let parse_kind lineno = function
  | "mix" -> Operation.Mix
  | "heat" -> Operation.Heat
  | "filter" -> Operation.Filter
  | "detect" -> Operation.Detect
  | other -> fail lineno "unknown operation kind %S" other

let kind_keyword = function
  | Operation.Mix -> "mix"
  | Operation.Heat -> "heat"
  | Operation.Filter -> "filter"
  | Operation.Detect -> "detect"

let parse_float lineno what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail lineno "invalid %s %S" what s

let parse_int lineno what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail lineno "invalid %s %S" what s

let unquote lineno s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else if String.contains s '"' then fail lineno "unbalanced quotes in %S" s
  else s

type line_item =
  | Assay of string
  | Fluid_decl of string * float * float option
  | Op_decl of int * Operation.kind * float * string
  | Edge_decl of int * int

let parse_line lineno line =
  match tokens line with
  | [] -> None
  | "assay" :: rest ->
    (match rest with
     | [ name ] -> Some (Assay (unquote lineno name))
     | _ -> fail lineno "expected: assay \"name\"")
  | [ "fluid"; name; diffusion ] ->
    Some
      (Fluid_decl
         (name, parse_float lineno "diffusion coefficient" diffusion, None))
  | [ "fluid"; name; diffusion; wash ] ->
    Some
      (Fluid_decl
         ( name,
           parse_float lineno "diffusion coefficient" diffusion,
           Some (parse_float lineno "wash time" wash) ))
  | [ "op"; id; kind; duration; fluid ] ->
    Some
      (Op_decl
         ( parse_int lineno "operation id" id,
           parse_kind lineno (String.lowercase_ascii kind),
           parse_float lineno "duration" duration,
           fluid ))
  | [ "edge"; src; dst ] ->
    Some
      (Edge_decl (parse_int lineno "edge source" src,
                  parse_int lineno "edge target" dst))
  | keyword :: _ -> fail lineno "unrecognised directive %S" keyword

let build items =
  let name = ref None in
  let fluids = Hashtbl.create 8 in
  let ops = ref [] in
  let edges = ref [] in
  List.iter
    (fun (lineno, item) ->
      match item with
      | Assay n ->
        if !name <> None then fail lineno "duplicate assay declaration";
        name := Some n
      | Fluid_decl (fluid_name, diffusion, wash) ->
        if Hashtbl.mem fluids fluid_name then
          fail lineno "duplicate fluid %S" fluid_name;
        (match
           let fluid = Fluid.make ~name:fluid_name ~diffusion in
           match wash with
           | Some w -> Fluid.with_wash_time fluid w
           | None -> fluid
         with
         | fluid -> Hashtbl.replace fluids fluid_name fluid
         | exception Invalid_argument msg -> fail lineno "%s" msg)
      | Op_decl (id, kind, duration, fluid_name) ->
        let output =
          match Hashtbl.find_opt fluids fluid_name with
          | Some fluid -> fluid
          | None -> fail lineno "undeclared fluid %S" fluid_name
        in
        (match Operation.make ~id ~kind ~duration ~output with
         | op -> ops := (lineno, op) :: !ops
         | exception Invalid_argument msg -> fail lineno "%s" msg)
      | Edge_decl (src, dst) -> edges := (src, dst) :: !edges)
    items;
  let name =
    match !name with
    | Some n -> n
    | None -> fail 0 "missing assay declaration"
  in
  let ops = List.rev !ops in
  (* Ids must be dense; sort by id and verify. *)
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare a.Operation.id b.Operation.id) ops
  in
  List.iteri
    (fun expected (lineno, (op : Operation.t)) ->
      if op.id <> expected then
        fail lineno "operation ids must be dense: expected %d, found %d"
          expected op.id)
    sorted;
  match
    Seq_graph.create ~name ~ops:(List.map snd sorted) ~edges:(List.rev !edges)
  with
  | g -> g
  | exception Invalid_argument msg -> fail 0 "%s" msg

let parse text =
  try
    let items =
      String.split_on_char '\n' text
      |> List.mapi (fun i line -> (i + 1, strip_comment line))
      |> List.filter_map (fun (lineno, line) ->
             Option.map (fun item -> (lineno, item)) (parse_line lineno line))
    in
    Ok (build items)
  with Parse_error e -> Error e

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error message -> Error { line = 0; message }

let to_string g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "assay \"%s\"\n" (Seq_graph.name g));
  let fluids = Hashtbl.create 8 in
  Array.iter
    (fun (op : Operation.t) ->
      if not (Hashtbl.mem fluids op.output.Fluid.name) then begin
        Hashtbl.replace fluids op.output.Fluid.name ();
        Buffer.add_string buf
          (match op.output.Fluid.wash_override with
           | Some w ->
             Printf.sprintf "fluid %s %g %g\n" op.output.Fluid.name
               op.output.Fluid.diffusion w
           | None ->
             Printf.sprintf "fluid %s %g\n" op.output.Fluid.name
               op.output.Fluid.diffusion)
      end)
    (Seq_graph.ops g);
  Array.iter
    (fun (op : Operation.t) ->
      Buffer.add_string buf
        (Printf.sprintf "op %d %s %g %s\n" op.id (kind_keyword op.kind)
           op.duration op.output.Fluid.name))
    (Seq_graph.ops g);
  List.iter
    (fun (src, dst) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" src dst))
    (List.sort compare (Seq_graph.edges g));
  Buffer.contents buf

let pp_error ppf e =
  if e.line = 0 then Format.fprintf ppf "%s" e.message
  else Format.fprintf ppf "line %d: %s" e.line e.message
