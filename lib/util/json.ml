type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Most keys and strings need no escaping; those are returned as they
   are, without a copy. *)
let escape s =
  if not (String.exists needs_escape s) then s
  else
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let to_string ?(indent = 0) v =
  let buf = Buffer.create 256 in
  let nl depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (depth + 1);
          emit (depth + 1) item)
        items;
      nl depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (depth + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          if indent > 0 then Buffer.add_char buf ' ';
          emit (depth + 1) item)
        fields;
      nl depth;
      Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf

let to_channel ?indent oc v = output_string oc (to_string ?indent v)

(* --- parsing --- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "invalid \\u escape"
                | Some code ->
                  (match Uchar.of_int code with
                   | u -> Buffer.add_utf_8_uchar buf u
                   | exception Invalid_argument _ ->
                     Buffer.add_utf_8_uchar buf Uchar.rep);
                  pos := !pos + 4)
             | c -> fail (Printf.sprintf "invalid escape '\\%c'" c));
          go ()
        | c when Char.code c < 0x20 -> fail "unescaped control character"
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d = ref 0 in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ();
        incr d
      done;
      if !d = 0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
