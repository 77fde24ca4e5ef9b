module Json = Mfb_util.Json
module Telemetry = Mfb_util.Telemetry
module P = Mfb_server.Protocol
module Server = Mfb_server.Server

let respond oc resp =
  output_string oc (P.response_to_line resp);
  output_char oc '\n';
  flush oc

(* Answer one resolved submit: the same computation the in-process
   server path runs, so recovery by re-dispatch (or by degradation) is
   answer-preserving by construction.  When the submit carries trace
   context, the computation runs under a fresh per-request sink and the
   resulting span forest ships back in the reply — the payload bytes
   are identical either way, only the optional ["spans"] field is
   added.  Under [vclock] the worker clock is frozen at 0, so shipped
   span trees are a pure function of the computation structure. *)
let answer ?(vclock = false) ~index ~config ~id ~flow ~spec ~overrides ~trace
    () =
  match Server.resolve ~base:config ~flow ~overrides spec with
  | Error reason -> P.Rejected { op = "submit"; id; reason }
  | Ok job ->
    let key = Mfb_server.Cache_key.to_hex job.Server.key in
    (* a failed synthesis is answered, not fatal: the server sheds the
       job with the reason, exactly as its in-process path would *)
    let reply spans = function
      | Ok payload -> P.Job_result { id; key; result = payload; spans }
      | Error reason -> P.Rejected { op = "submit"; id; reason }
    in
    (match trace with
     | None -> reply None (Server.run_job job)
     | Some ctx ->
       let saved = Telemetry.installed_sink () in
       Telemetry.uninstall ();
       let clock =
         if vclock then fun () -> 0.0 else Unix.gettimeofday
       in
       let sink = Telemetry.make_sink ~clock () in
       Telemetry.install sink;
       let outcome =
         Fun.protect
           ~finally:(fun () ->
             Telemetry.uninstall ();
             match saved with
             | Some s -> Telemetry.install s
             | None -> ())
           (fun () ->
             Server.run_job
               ~trace:
                 [ ("ctx", Telemetry.Str ctx);
                   ("worker", Telemetry.Int index) ]
               job)
       in
       let spans =
         Json.List
           (List.map Telemetry.node_to_json
              (Telemetry.spans ~max_depth:4 sink))
       in
       reply (Some spans) outcome)

let run ?(fault = Fault.empty) ?(index = 0) ?(vclock = false) ~config ic oc =
  let jobs_done = ref 0 in
  let rec loop () =
    match P.input_line_bounded ic with
    | P.Eof -> ()
    | P.Oversized n ->
      respond oc
        (P.Bad_request
           {
             id = None;
             message =
               Printf.sprintf "line too long: %d bytes exceed the %d-byte limit"
                 n P.default_max_line_bytes;
           });
      loop ()
    | P.Line line ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then loop ()
      else begin
        (match P.request_of_line trimmed with
         | Error message -> respond oc (P.Bad_request { id = None; message })
         | Ok (P.Submit { id; flow; spec; overrides; trace; _ }) ->
           let job = !jobs_done in
           incr jobs_done;
           let answer () =
             answer ~vclock ~index ~config ~id ~flow ~spec ~overrides ~trace
               ()
           in
           (match Fault.lookup fault ~worker:index ~job with
            | Some Fault.Crash -> exit 3
            | Some Fault.Stall ->
              (* Never answer; if the dispatcher's deadline somehow does
                 not fire, die eventually rather than leak forever. *)
              Unix.sleepf 3600.0;
              exit 3
            | Some Fault.Garbage ->
              output_string oc "%% corrupted response line %%\n";
              flush oc
            | Some Fault.Truncate ->
              let full = P.response_to_line (answer ()) in
              output_string oc (String.sub full 0 (String.length full / 2));
              flush oc;
              exit 3
            | Some (Fault.Slow s) ->
              Unix.sleepf s;
              respond oc (answer ())
            | None -> respond oc (answer ()))
         | Ok P.Stats ->
           respond oc
             (P.Stats_reply
                (Json.Obj
                   [ ("worker", Json.Int index);
                     ("jobs", Json.Int !jobs_done) ]))
         | Ok P.Shutdown ->
           respond oc
             (P.Goodbye
                (Json.Obj
                   [ ("worker", Json.Int index);
                     ("jobs", Json.Int !jobs_done) ]));
           raise Exit
         | Ok (P.Status _ | P.Result _ | P.Repair _ | P.Stats_prom) ->
           respond oc
             (P.Bad_request
                {
                  id = None;
                  message = "workers answer submit/stats/shutdown only";
                }));
        loop ()
      end
  in
  try loop () with Exit -> ()
