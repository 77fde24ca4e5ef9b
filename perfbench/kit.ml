(* Helpers shared by the benchmark's workloads: command-line parsing,
   nearest-rank percentiles, /proc probes, run stamps and the result
   line.  Used only by this benchmark. *)

module Json = Mfb_util.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (* tiny inputs, for the smoke test only *)
  server_bin : string;
}

let usage =
  "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] \
   [--server-bin PATH]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2)
    fmt

let parse_args argv =
  let values = Hashtbl.create 8 and smoke = ref false in
  let n = Array.length argv in
  let rec scan i =
    if i < n then
      match argv.(i) with
      | "--smoke" ->
        smoke := true;
        scan (i + 1)
      | ("--workload" | "--seed" | "--seconds" | "--trace" | "--server-bin") as
        k
        when i + 1 < n ->
        Hashtbl.replace values k argv.(i + 1);
        scan (i + 2)
      | a -> die "unexpected argument %S\n%s" a usage
  in
  scan 1;
  let get k =
    match Hashtbl.find_opt values k with
    | Some v -> v
    | None -> die "missing %s\n%s" k usage
  in
  let int_of k =
    match int_of_string_opt (get k) with
    | Some v -> v
    | None -> die "%s expects an integer" k
  in
  let seconds = int_of "--seconds" in
  if seconds < 1 then die "--seconds must be >= 1";
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> die "--trace expects 0 or 1"
  in
  {
    workload = get "--workload";
    seed = int_of "--seed";
    seconds = float_of_int seconds;
    trace;
    smoke = !smoke;
    server_bin =
      Option.value
        (Hashtbl.find_opt values "--server-bin")
        ~default:"_build/default/bin/dcsa_synth.exe";
  }

(* --- statistics --- *)

type pct = {
  value : float;
  n : int;       (* samples *)
  beyond : int;  (* samples ranked strictly above [value] *)
}

(* Nearest-rank percentile: the smallest sample with at least [p] of
   the samples at or below it. *)
let percentile samples p =
  let s = Array.of_list samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Kit.percentile: no samples";
  Array.sort compare s;
  let rank = max 1 (min n (int_of_float (ceil ((p *. float_of_int n) -. 1e-9)))) in
  { value = s.(rank - 1); n; beyond = n - rank }

let median samples = (percentile samples 0.5).value

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let ratio a b = if b = 0. then 0. else a /. b

(* [time f] is [(f (), elapsed seconds)]. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Words allocated by this domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- /proc probes --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of [pid] ("self" for this process). *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
      float_of_int kb /. 1024.)

(* User + system CPU seconds of [pid]; /proc reports clock ticks, which
   are 1/100 s on Linux. *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  let f i = float_of_string (List.nth fields (i - 3)) in
  (f 14 +. f 15) /. 100.

(* --- run stamp --- *)

(* Digest of the program's sources, so runs of different code are never
   compared silently even where no git commit is available. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then files path
           else if
             Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ path ]
           else [])
  in
  let paths = files "lib" @ files "bin" in
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun p -> p ^ read_file p) paths)))

let stamp (a : args) =
  Json.Obj
    [
      ("workload", Json.String a.workload);
      ("seed", Json.Int a.seed);
      ("seconds", Json.Float a.seconds);
      ("trace_sink", Json.Bool a.trace);
      ("smoke", Json.Bool a.smoke);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "git_commit",
        Json.String
          (Option.value (Sys.getenv_opt "PERFBENCH_GIT_COMMIT") ~default:"none")
      );
      ("source_digest", Json.String (source_digest ()));
    ]

(* --- output --- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* What a workload hands back: end-to-end metrics, per-layer values
   (traced runs only), and its operation counts. *)
type outcome = {
  e2e : metric list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
}

(* Percentile detail goes to stderr: the sample count and how many
   samples lie beyond it. *)
let report_pct name (p : pct) =
  Printf.eprintf "perfbench: %s = %.6g (n=%d, %d beyond)\n%!" name p.value p.n
    p.beyond

(* The stamp line, then the result line: the last line of stdout. *)
let print_result (a : args) ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        die "metric %s is not finite" x.name)
    metrics;
  print_endline (Json.to_string (Json.Obj [ ("stamp", stamp a) ]));
  let metric x =
    ( x.name,
      Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ] )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))
