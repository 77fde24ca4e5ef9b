let connect_fd ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let wait_port_file ?(timeout = 30.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    let port =
      if Sys.file_exists path then
        match In_channel.with_open_text path In_channel.input_line with
        | Some line -> int_of_string_opt (String.trim line)
        | None | (exception Sys_error _) -> None
      else None
    in
    match port with
    | Some p when p > 0 -> Ok p
    | _ ->
      if Unix.gettimeofday () >= deadline then
        Error (Printf.sprintf "timed out waiting for port file %s" path)
      else begin
        ignore (Unix.select [] [] [] 0.05);
        poll ()
      end
  in
  poll ()
