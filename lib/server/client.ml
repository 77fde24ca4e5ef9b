type t = Server.t

let in_process server = server

let call t req =
  match Server.handle_line t (Protocol.request_to_line req) with
  | Some line -> Protocol.response_of_line line
  | None -> Error "server produced no response"
