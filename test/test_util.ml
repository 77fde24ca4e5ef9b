(* Tests for the generic substrates in Mfb_util. *)

module Pqueue = Mfb_util.Pqueue
module Interval = Mfb_util.Interval
module Interval_set = Mfb_util.Interval_set
module Rng = Mfb_util.Rng
module Dsu = Mfb_util.Dsu
module Stats = Mfb_util.Stats
module Table = Mfb_util.Table
module Json = Mfb_util.Json

let check_float = Alcotest.(check (float 1e-9))

let qtest ?(count = 200) name gen prop =
  (* A per-test fixed seed keeps property tests reproducible run to run. *)
  let rand = Random.State.make [| Hashtbl.hash name |] in
  QCheck_alcotest.to_alcotest ~rand (QCheck2.Test.make ~count ~name gen prop)

(* --- Pqueue --- *)

let test_pqueue_empty () =
  let q = Pqueue.create ~cmp:compare in
  Alcotest.(check int) "length" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop" true (Pqueue.pop q = None)

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:compare in
  List.iter (fun p -> Pqueue.push q p (string_of_int p)) [ 5; 1; 4; 2; 3 ];
  let popped = List.init 5 (fun _ -> fst (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_max_via_cmp () =
  let q = Pqueue.create ~cmp:(fun a b -> compare b a) in
  List.iter (fun p -> Pqueue.push q p p) [ 5; 1; 4 ];
  Alcotest.(check int) "max first" 5 (fst (Option.get (Pqueue.pop q)))

let test_pqueue_interleaved () =
  let q = Pqueue.create ~cmp:compare in
  Pqueue.push q 3 ();
  Pqueue.push q 1 ();
  Alcotest.(check int) "first pop" 1 (fst (Option.get (Pqueue.pop q)));
  Pqueue.push q 2 ();
  Alcotest.(check int) "second pop" 2 (fst (Option.get (Pqueue.pop q)));
  Alcotest.(check int) "third pop" 3 (fst (Option.get (Pqueue.pop q)))

let prop_pqueue_sorts =
  qtest "pqueue pops in sorted order"
    QCheck2.Gen.(list_size (int_bound 200) int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (fun x -> Pqueue.push q x x) xs;
      let popped =
        List.init (List.length xs) (fun _ -> fst (Option.get (Pqueue.pop q)))
      in
      popped = List.sort compare xs)

let prop_pqueue_length =
  qtest "pqueue length tracks pushes"
    QCheck2.Gen.(list_size (int_bound 100) int)
    (fun xs ->
      let q = Pqueue.create ~cmp:compare in
      List.iter (fun x -> Pqueue.push q x ()) xs;
      Pqueue.length q = List.length xs)

(* --- Interval --- *)

let test_interval_make_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Interval.make: hi < lo")
    (fun () -> ignore (Interval.make 2. 1.));
  Alcotest.check_raises "nan"
    (Invalid_argument "Interval.make: non-finite bound") (fun () ->
      ignore (Interval.make Float.nan 1.))

let test_interval_basics () =
  let iv = Interval.make 1. 4. in
  check_float "lo" 1. (Interval.lo iv);
  check_float "hi" 4. (Interval.hi iv);
  check_float "duration" 3. (Interval.duration iv);
  Alcotest.(check bool) "not empty" false (Interval.is_empty iv);
  Alcotest.(check bool) "empty" true (Interval.is_empty (Interval.make 2. 2.))

let test_interval_overlap () =
  let a = Interval.make 0. 2. and b = Interval.make 1. 3. in
  Alcotest.(check bool) "overlap" true (Interval.overlaps a b);
  let c = Interval.make 2. 4. in
  Alcotest.(check bool) "half-open adjacency" false (Interval.overlaps a c);
  let e = Interval.make 1. 1. in
  Alcotest.(check bool) "empty overlaps nothing" false (Interval.overlaps a e)

let test_interval_contains () =
  let iv = Interval.make 1. 3. in
  Alcotest.(check bool) "lo included" true (Interval.contains iv 1.);
  Alcotest.(check bool) "hi excluded" false (Interval.contains iv 3.);
  Alcotest.(check bool) "middle" true (Interval.contains iv 2.)

let test_interval_shift () =
  let iv = Interval.shift (Interval.make 1. 3.) 2. in
  check_float "shift lo" 3. (Interval.lo iv);
  check_float "shift hi" 5. (Interval.hi iv)

let interval_gen =
  QCheck2.Gen.(
    map2
      (fun lo len -> Interval.make lo (lo +. Float.abs len))
      (float_bound_inclusive 100.) (float_bound_inclusive 50.))

let prop_interval_overlap_sym =
  qtest "interval overlap is symmetric"
    QCheck2.Gen.(pair interval_gen interval_gen)
    (fun (a, b) -> Interval.overlaps a b = Interval.overlaps b a)

(* --- Interval_set --- *)

let iset_of_list ivs =
  List.fold_left (fun s iv -> Interval_set.add iv s) Interval_set.empty ivs

let test_iset_empty () =
  Alcotest.(check bool) "empty" true (Interval_set.is_empty Interval_set.empty)

let test_iset_add_empty_interval () =
  let s = Interval_set.add (Interval.make 1. 1.) Interval_set.empty in
  Alcotest.(check bool) "ignored" true (Interval_set.is_empty s)

let test_iset_overlaps () =
  let s =
    iset_of_list [ Interval.make 0. 2.; Interval.make 5. 7. ]
  in
  Alcotest.(check bool) "hit" true
    (Interval_set.overlaps (Interval.make 1. 3.) s);
  Alcotest.(check bool) "gap" false
    (Interval_set.overlaps (Interval.make 3. 5.) s);
  Alcotest.(check bool) "late" false
    (Interval_set.overlaps (Interval.make 8. 9.) s)

(* Inserted out of order, the set still meets a window's earliest
   conflict: only [0, 2) covers [1, 2), and the scan that stops at the
   first slot starting after the window must not stop at [5, 7). *)
let test_iset_first_conflict () =
  let s =
    iset_of_list [ Interval.make 5. 7.; Interval.make 0. 2. ]
  in
  Alcotest.(check bool) "earliest" true
    (Interval_set.overlaps (Interval.make 1. 2.) s);
  Alcotest.(check bool) "window" true
    (Interval_set.overlaps (Interval.make 1. 6.) s)

let test_iset_free_from () =
  let s =
    iset_of_list [ Interval.make 2. 4.; Interval.make 5. 6. ]
  in
  check_float "before gap too small" 6.
    (Interval_set.free_from 1. ~duration:2. s);
  check_float "fits in gap" 4. (Interval_set.free_from 3. ~duration:1. s);
  check_float "already free" 0. (Interval_set.free_from 0. ~duration:2. s)

let prop_iset_free_from_is_free =
  qtest "free_from result has no overlap"
    QCheck2.Gen.(
      pair
        (list_size (int_bound 10) interval_gen)
        (float_bound_inclusive 20.))
    (fun (ivs, duration) ->
      let s = iset_of_list ivs in
      let t = Interval_set.free_from 0. ~duration s in
      (duration = 0.)
      || not (Interval_set.overlaps (Interval.make t (t +. duration)) s))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same sequence" xs ys

let test_rng_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: hi < lo")
    (fun () -> ignore (Rng.int_in rng 3 2));
  Alcotest.check_raises "empty choose"
    (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let test_rng_split_diverges () =
  let a = Rng.create 11 in
  let b = (Rng.split_n a 1).(0) in
  let xs = List.init 10 (fun _ -> Rng.int a 1000000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000000) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let prop_rng_int_bounds =
  qtest "Rng.int within bounds"
    QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let x = Rng.int rng bound in
      0 <= x && x < bound)

let prop_rng_int_in_bounds =
  qtest "Rng.int_in inclusive bounds"
    QCheck2.Gen.(triple int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let x = Rng.int_in rng lo (lo + span) in
      lo <= x && x <= lo + span)

let prop_rng_float_bounds =
  qtest "Rng.float within bounds" QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let x = Rng.float rng 3.5 in
      0. <= x && x < 3.5)

(* --- Dsu --- *)

let dsu_same d i j = Dsu.find d i = Dsu.find d j

(* Sets among the elements [0 .. n-1]: one root each. *)
let dsu_sets d n =
  List.length (List.filter (fun i -> Dsu.find d i = i) (List.init n Fun.id))

let test_dsu_basics () =
  let d = Dsu.create 5 in
  Alcotest.(check int) "initial sets" 5 (dsu_sets d 5);
  Dsu.union d 0 1;
  Dsu.union d 2 3;
  Alcotest.(check int) "after unions" 3 (dsu_sets d 5);
  Alcotest.(check bool) "same 0 1" true (dsu_same d 0 1);
  Alcotest.(check bool) "not same 1 2" false (dsu_same d 1 2);
  Dsu.union d 1 2;
  Alcotest.(check bool) "transitive" true (dsu_same d 0 3);
  Alcotest.(check int) "final" 2 (dsu_sets d 5)

let test_dsu_idempotent_union () =
  let d = Dsu.create 3 in
  Dsu.union d 0 1;
  Dsu.union d 0 1;
  Alcotest.(check int) "no double count" 2 (dsu_sets d 3)

let prop_dsu_find_canonical =
  qtest "find returns a fixed point"
    QCheck2.Gen.(list_size (int_bound 30) (pair (int_bound 19) (int_bound 19)))
    (fun unions ->
      let d = Dsu.create 20 in
      List.iter (fun (a, b) -> Dsu.union d a b) unions;
      List.for_all (fun i -> Dsu.find d (Dsu.find d i) = Dsu.find d i)
        (List.init 20 Fun.id))

(* --- Stats --- *)

let test_stats_basics () =
  check_float "sum" 6. (Stats.sum [ 1.; 2.; 3. ]);
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean [])

let test_stats_improvement () =
  check_float "reduction" 25.
    (Stats.percent_improvement ~ours:75. ~baseline:100.);
  check_float "increase" 50. (Stats.percent_increase ~ours:75. ~baseline:50.);
  check_float "zero baseline" 0.
    (Stats.percent_improvement ~ours:1. ~baseline:0.)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (Testkit.contains s "name");
  Alcotest.(check bool) "has row" true (Testkit.contains s "alpha");
  Alcotest.(check bool) "has rule" true (Testkit.contains s "+--")

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "row arity"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ]);
  Alcotest.check_raises "align arity"
    (Invalid_argument "Table.set_aligns: arity mismatch") (fun () ->
      Table.set_aligns t [ Table.Left ])

(* --- Json --- *)

let test_json_compact () =
  let v =
    Json.Obj
      [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]
  in
  Alcotest.(check string) "compact" {|{"a":1,"b":[true,null]}|}
    (Json.to_string v)

let test_json_escape () =
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (Json.to_string (Json.String "a\"b\\c\nd"))

let test_json_floats () =
  Alcotest.(check string) "integral float" "2.0"
    (Json.to_string (Json.Float 2.));
  Alcotest.(check string) "fraction" "2.5" (Json.to_string (Json.Float 2.5))

let test_json_indent () =
  let v = Json.Obj [ ("x", Json.Int 1) ] in
  let s = Json.to_string ~indent:2 v in
  Alcotest.(check bool) "has newline" true (String.contains s '\n')

(* --- Json parsing --- *)

let test_json_parse_scalars () =
  Alcotest.(check bool) "int" true (Json.of_string "42" = Ok (Json.Int 42));
  Alcotest.(check bool) "negative" true
    (Json.of_string "-7" = Ok (Json.Int (-7)));
  Alcotest.(check bool) "float" true
    (Json.of_string "-3.5" = Ok (Json.Float (-3.5)));
  Alcotest.(check bool) "exponent" true
    (Json.of_string "1e3" = Ok (Json.Float 1000.));
  Alcotest.(check bool) "true" true (Json.of_string "true" = Ok (Json.Bool true));
  Alcotest.(check bool) "null" true (Json.of_string "null" = Ok Json.Null);
  Alcotest.(check bool) "string escapes" true
    (Json.of_string {|"a\nb\"c"|} = Ok (Json.String "a\nb\"c"))

let test_json_parse_containers () =
  Alcotest.(check bool) "array" true
    (Json.of_string "[1, 2, 3]" = Ok (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]));
  Alcotest.(check bool) "object" true
    (Json.of_string {| {"a": 1, "b": [true]} |}
    = Ok (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ]));
  Alcotest.(check bool) "empty object" true
    (Json.of_string "{}" = Ok (Json.Obj []));
  Alcotest.(check bool) "empty array" true
    (Json.of_string "[]" = Ok (Json.List []))

let test_json_parse_errors () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty input" true (is_error (Json.of_string ""));
  Alcotest.(check bool) "unterminated object" true
    (is_error (Json.of_string "{"));
  Alcotest.(check bool) "trailing comma" true
    (is_error (Json.of_string "[1,]"));
  Alcotest.(check bool) "missing colon" true
    (is_error (Json.of_string {|{"a" 1}|}));
  Alcotest.(check bool) "trailing garbage" true
    (is_error (Json.of_string "{} x"));
  Alcotest.(check bool) "bare word" true (is_error (Json.of_string "nope"))

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1); ("b", Json.Null) ] in
  Alcotest.(check bool) "hit" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "miss" true (Json.member "z" v = None);
  Alcotest.(check bool) "non-object" true
    (Json.member "a" (Json.List []) = None)

(* Float-free generator: float formatting round-trips are checked by the
   scalar cases above; structural round-trip is what this proves. *)
let json_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Json.Int i) int;
                 map (fun b -> Json.Bool b) bool;
                 return Json.Null;
                 map (fun s -> Json.String s) (string_size (int_bound 8));
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 2)));
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair
                         (string_size (int_bound 5)
                            ~gen:(char_range 'a' 'z'))
                         (self (n / 2))));
               ]))

let prop_json_roundtrip =
  qtest "of_string inverts to_string" json_gen (fun v ->
      Json.of_string (Json.to_string v) = Ok v)

let prop_json_roundtrip_pretty =
  qtest "of_string inverts pretty to_string" json_gen (fun v ->
      Json.of_string (Json.to_string ~indent:2 v) = Ok v)

(* Floats whose [float_repr] text parses back to the same double: the
   writer prints non-integer floats with 12 significant digits, so stick
   to binary fractions m/2^k and short decimals d*10^-e that need fewer.
   Integer floats exercise the "%.1f" branch, huge ones the exponent
   form. *)
let roundtrip_float_gen =
  QCheck2.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map2
          (fun m k -> float_of_int m /. float_of_int (1 lsl k))
          (int_range (-9999) 9999) (int_bound 8);
        map2
          (fun d e -> float_of_string (Printf.sprintf "%de-%d" d e))
          (int_range (-999) 999) (int_bound 6);
        map (fun e -> float_of_string (Printf.sprintf "1e%d" e))
          (int_range 15 30);
        oneofl [ 0.; -0.; 1e15; 1e15 -. 1.; 1e-300; 0.5; -0.125 ];
      ])

(* Every byte 0x00-0xff: quotes and backslashes hit the two-char
   escapes, other control bytes the \u form, and high bytes pass through
   raw — all of which the parser must invert. *)
let nasty_string_gen =
  QCheck2.Gen.(string_size (int_bound 12) ~gen:(map Char.chr (int_bound 255)))

let json_full_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) roundtrip_float_gen;
                 map (fun b -> Json.Bool b) bool;
                 return Json.Null;
                 map (fun s -> Json.String s) nasty_string_gen;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 2)));
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4)
                      (pair nasty_string_gen (self (n / 2))));
               ]))

(* The parser types digit-only text as Int, so integer-valued Floats
   come back as Float only because the writer always prints a decimal
   point; this property proves that invariant holds across both
   renderers. *)
let prop_json_roundtrip_full =
  qtest ~count:500 "full round-trip incl. floats and escapes" json_full_gen
    (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string ~indent:2 v) = Ok v)

let test_json_numeric_edges () =
  let rt v = Json.of_string (Json.to_string v) = Ok v in
  Alcotest.(check bool) "max_int" true (rt (Json.Int max_int));
  Alcotest.(check bool) "min_int" true (rt (Json.Int min_int));
  Alcotest.(check bool) "1e15 boundary" true (rt (Json.Float 1e15));
  Alcotest.(check bool) "below 1e15" true (rt (Json.Float (1e15 -. 1.)));
  Alcotest.(check bool) "negative zero" true (rt (Json.Float (-0.)));
  Alcotest.(check bool) "huge exponent" true (rt (Json.Float 1e300));
  Alcotest.(check bool) "tiny exponent" true (rt (Json.Float 1e-300))

(* --- Telemetry --- *)

module Telemetry = Mfb_util.Telemetry
module Pool = Mfb_util.Pool
module Lru = Mfb_util.Lru

(* A fake clock (1 s per call) makes timestamps and durations
   reproducible; [Fun.protect] guarantees the global sink never leaks
   into other tests. *)
let with_fake_sink f =
  let t = ref 0. in
  let clock () =
    let v = !t in
    t := v +. 1.;
    v
  in
  let sink = Telemetry.make_sink ~clock () in
  Telemetry.install sink;
  Fun.protect ~finally:Telemetry.uninstall (fun () -> f sink)

let complete_events sink =
  List.filter_map
    (fun (e : Telemetry.event) ->
      match e.ph with
      | Telemetry.Complete dur -> Some (e.name, e.depth, dur)
      | _ -> None)
    (Telemetry.events sink)

let test_telemetry_span_nesting () =
  with_fake_sink (fun sink ->
      let r =
        Telemetry.span ~cat:"t" "outer" (fun () ->
            Telemetry.span ~cat:"t" "inner" (fun () -> 42))
      in
      Alcotest.(check int) "result" 42 r;
      match complete_events sink with
      | [ ("inner", d_in, dur_in); ("outer", d_out, dur_out) ] ->
        Alcotest.(check int) "inner depth" 1 d_in;
        Alcotest.(check int) "outer depth" 0 d_out;
        Alcotest.(check bool) "outer encloses inner" true (dur_out > dur_in)
      | evs ->
        Alcotest.failf "expected inner-then-outer, got %d events"
          (List.length evs))

let test_telemetry_span_on_raise () =
  with_fake_sink (fun sink ->
      (try
         Telemetry.span "doomed" (fun () -> raise Exit)
       with Exit -> ());
      match complete_events sink with
      | [ ("doomed", 0, _) ] -> ()
      | _ -> Alcotest.fail "span not closed on exception")

let test_telemetry_disabled_noop () =
  Alcotest.(check bool) "inactive" false (Telemetry.active ());
  Alcotest.(check int) "span passes through" 7
    (Telemetry.span "s" (fun () -> 7));
  Telemetry.incr "c";
  Telemetry.observe "h" 1.;
  Telemetry.sample "s" 3.;
  let ctx = Telemetry.task_context () in
  Alcotest.(check bool) "context inert" false (Telemetry.is_live ctx);
  Alcotest.(check int) "in_task identity" 9
    (Telemetry.in_task ctx ~label:"t" 0 (fun () -> 9));
  let v, ms = Telemetry.with_scope "scope" (fun () -> 11) in
  Alcotest.(check int) "with_scope passes through" 11 v;
  Alcotest.(check int) "no metrics" 0 (List.length ms)

let test_telemetry_span_hook () =
  with_fake_sink (fun _sink ->
      let log = ref [] in
      Telemetry.set_span_hook
        (Some
           (fun dir ~depth:_ name ->
             log := (dir = `Open, name) :: !log));
      Fun.protect
        ~finally:(fun () -> Telemetry.set_span_hook None)
        (fun () ->
          Telemetry.span "a" (fun () -> Telemetry.span "b" (fun () -> ())));
      Alcotest.(check bool) "open/close order" true
        (List.rev !log
        = [ (true, "a"); (true, "b"); (false, "b"); (false, "a") ]))

let test_telemetry_aggregates () =
  with_fake_sink (fun _sink ->
      let (), ms =
        Telemetry.with_scope "s" (fun () ->
            Telemetry.incr ~cat:"c" "x";
            Telemetry.incr ~cat:"c" ~by:4 "x";
            Telemetry.observe ~cat:"c" "h" 3.;
            Telemetry.observe ~cat:"c" "h" 1.)
      in
      match ms with
      | [ { Telemetry.mcat = "c"; mname = "h"; mdata = Telemetry.Histogram s };
          { mcat = "c"; mname = "x"; mdata = Telemetry.Counter n } ] ->
        Alcotest.(check int) "hist count" 2 s.count;
        check_float "hist sum" 4. s.sum;
        check_float "hist min" 1. s.min;
        check_float "hist max" 3. s.max;
        Alcotest.(check int) "counter sum" 5 n
      | _ -> Alcotest.failf "unexpected metrics (%d)" (List.length ms))

(* The load-bearing property: aggregates merged from the collector tree
   are identical whatever the worker count, float summation included. *)
let test_telemetry_merge_jobs_invariant () =
  let run jobs =
    with_fake_sink (fun _sink ->
        let _, ms =
          Telemetry.with_scope "s" (fun () ->
              ignore
                (Pool.map ~label:"t" ~jobs
                   (fun i ->
                     Telemetry.incr ~cat:"m" "n";
                     Telemetry.observe ~cat:"m" "v" (float_of_int i *. 0.1);
                     i * i)
                   (List.init 17 Fun.id)))
        in
        ms)
  in
  let m1 = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals jobs=1" jobs)
        true
        (run jobs = m1))
    [ 2; 3; 8 ]

let test_telemetry_chrome_export () =
  with_fake_sink (fun sink ->
      Telemetry.span ~cat:"t" "top" (fun () ->
          Telemetry.sample ~cat:"t" "load" 0.5);
      let doc = Telemetry.to_chrome_json ~process_name:"test" sink in
      match Json.of_string (Json.to_string doc) with
      | Error e -> Alcotest.failf "export does not re-parse: %s" e
      | Ok parsed ->
        (match Json.member "traceEvents" parsed with
         | Some (Json.List events) ->
           Alcotest.(check bool) "has events" true (List.length events > 3);
           List.iter
             (fun ev ->
               match Json.member "ph" ev, Json.member "name" ev with
               | Some (Json.String _), Some (Json.String _) -> ()
               | _ -> Alcotest.fail "event lacks ph/name")
             events;
           let has ph =
             List.exists
               (fun ev -> Json.member "ph" ev = Some (Json.String ph))
               events
           in
           Alcotest.(check bool) "complete span" true (has "X");
           Alcotest.(check bool) "counter sample" true (has "C");
           Alcotest.(check bool) "metadata" true (has "M")
         | _ -> Alcotest.fail "no traceEvents array"))

(* --- Lru --- *)

let test_lru_basics () =
  let c = Lru.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Lru.capacity c);
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check int) "two entries" 2 (Lru.length c);
  Alcotest.(check bool) "find hit" true (Lru.find c "a" = Some 1);
  Alcotest.(check bool) "find miss" true (Lru.find c "z" = None);
  Alcotest.(check bool) "mem" true (List.mem_assoc "b" (Lru.bindings c));
  Alcotest.check_raises "capacity 0" (Invalid_argument "Lru.create: capacity < 1")
    (fun () -> ignore (Lru.create ~capacity:0 ()))

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* LRU "a" evicted *)
  Alcotest.(check (list (pair string int))) "b,c resident"
    [ ("c", 3); ("b", 2) ] (Lru.bindings c);
  ignore (Lru.find c "b");
  (* "b" now MRU, so adding evicts "c" *)
  Lru.add c "d" 4;
  Alcotest.(check (list (pair string int))) "find refreshes recency"
    [ ("d", 4); ("b", 2) ] (Lru.bindings c);
  (* replacing a resident key must not evict *)
  Lru.add c "b" 20;
  Alcotest.(check int) "replace keeps size" 2 (Lru.length c);
  Alcotest.(check bool) "replace updates value" true (Lru.find c "b" = Some 20);
  let s = Lru.stats c in
  Alcotest.(check int) "evictions" 2 s.Lru.evictions

let test_lru_stats () =
  let c = Lru.create ~capacity:1 () in
  ignore (Lru.find c "a");
  Lru.add c "a" 1;
  ignore (Lru.find c "a");
  Lru.add c "b" 2;
  ignore (Lru.bindings c);
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions

(* Model check: an LRU of capacity k holds exactly the last k distinct
   keys of the access sequence (finds of resident keys count as
   accesses), in recency order. *)
let prop_lru_matches_model =
  qtest "matches reference model"
    QCheck2.Gen.(
      pair (int_range 1 4) (small_list (pair (int_bound 8) (int_bound 100))))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap () in
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          Lru.add c k v;
          model := (k, v) :: List.remove_assoc k !model;
          if List.length !model > cap then
            model :=
              List.filteri (fun i _ -> i < cap) !model)
        ops;
      Lru.length c = List.length !model
      && Lru.bindings c = !model
      && List.for_all (fun (k, v) -> Lru.find c k = Some v) !model)

(* --- Histogram --- *)

module Histogram = Mfb_util.Histogram

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

(* A snapshot field of [h] as a float. *)
let snapshot h field =
  match Mfb_util.Json.member field (Histogram.snapshot_json h) with
  | Some (Mfb_util.Json.Float f) -> f
  | Some (Mfb_util.Json.Int n) -> float_of_int n
  | _ -> Alcotest.failf "snapshot lacks %s" field

let test_histogram_basics () =
  let h = hist_of [ 1.0; 2.0; 4.0; 0.0; -3.0 ] in
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_float "sum" 4.0 (Histogram.sum h);
  check_float "min" (-3.0) (snapshot h "min");
  check_float "max" 4.0 (snapshot h "max");
  let empty = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count empty);
  check_float "empty quantile" 0.0 (snapshot empty "p50");
  Alcotest.(check bool) "nan ignored" true
    (let h = Histogram.create () in
     Histogram.add h Float.nan;
     Histogram.count h = 0)

let test_histogram_prometheus_shape () =
  let h = hist_of [ 1.0; 2.0; 2.0 ] in
  let buf = Buffer.create 256 in
  Histogram.prometheus ~help:"test series" ~name:"t_lat" buf h;
  let text = Buffer.contents buf in
  let contains sub =
    let n = String.length sub in
    let rec scan i =
      i + n <= String.length text
      && (String.sub text i n = sub || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
        (contains sub))
    [ "# HELP t_lat test series"; "# TYPE t_lat histogram";
      "t_lat_bucket{le=\"+Inf\"} 3"; "t_lat_count 3"; "t_lat_sum 5" ]

(* Positive-skewed observation generator: mixes magnitudes across many
   octaves, plus zeros and sub-1 values, so the clamped index range and
   the zero bucket both get exercised. *)
let obs_gen =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (oneof
         [ float_range 0.0 3.0;
           float_range 0.0 1e6;
           return 0.0;
           float_range 1e-9 1e-3 ]))

(* The snapshot's p50, p95 and p99 against the exact quantiles. *)
let prop_histogram_quantile_bound =
  qtest ~count:100 "quantile within one bucket of exact" obs_gen
    (fun values ->
      values = []
      ||
      let h = hist_of values in
      let sorted = List.sort compare values in
      List.for_all
        (fun (field, q) ->
          let rank =
            max 1
              (int_of_float (ceil (q *. float_of_int (List.length values))))
          in
          let exact = List.nth sorted (rank - 1) in
          let u = snapshot h field in
          if exact <= 0.0 then u = 0.0
          else
            let eps = 1e-9 *. exact in
            u +. eps >= exact
            && u <= (exact *. Histogram.gamma *. Histogram.gamma) +. eps)
        [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ])

(* --- Telemetry span trees and folded stacks --- *)

let test_telemetry_node_roundtrip () =
  with_fake_sink (fun sink ->
      Telemetry.span ~cat:"t" ~args:[ ("k", Telemetry.Int 3) ] "outer"
        (fun () ->
          Telemetry.span ~cat:"t" "inner" (fun () -> ()));
      match Telemetry.spans sink with
      | [ root ] ->
        Alcotest.(check string) "root name" "outer" root.Telemetry.n_name;
        (match root.Telemetry.n_children with
         | [ child ] ->
           Alcotest.(check string) "child name" "inner"
             child.Telemetry.n_name
         | l -> Alcotest.failf "expected 1 child, got %d" (List.length l));
        (match Telemetry.node_of_json (Telemetry.node_to_json root) with
         | Ok root' ->
           Alcotest.(check bool) "json round trip" true (root = root')
         | Error e -> Alcotest.failf "node_of_json: %s" e)
      | forest ->
        Alcotest.failf "expected 1 root, got %d" (List.length forest))

let test_telemetry_emit_node_regrafts () =
  (* A node shipped across a process boundary re-emits onto a live sink
     and comes back out of [spans] structurally unchanged. *)
  with_fake_sink (fun sink1 ->
      Telemetry.span "a" (fun () -> Telemetry.span "b" (fun () -> ()));
      match Telemetry.spans sink1 with
      | [ root ] ->
        Telemetry.uninstall ();
        with_fake_sink (fun sink2 ->
            Telemetry.emit_node root;
            match Telemetry.spans sink2 with
            | [ root' ] ->
              Alcotest.(check string) "name survives" root.Telemetry.n_name
                root'.Telemetry.n_name;
              Alcotest.(check int) "children survive"
                (List.length root.Telemetry.n_children)
                (List.length root'.Telemetry.n_children)
            | f -> Alcotest.failf "regraft: %d roots" (List.length f))
      | f -> Alcotest.failf "expected 1 root, got %d" (List.length f))

let test_telemetry_to_folded () =
  with_fake_sink (fun sink ->
      Telemetry.span "outer" (fun () ->
          Telemetry.span "inner" (fun () -> ()));
      let folded = Telemetry.to_folded sink in
      let lines =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' folded)
      in
      Alcotest.(check int) "one line per stack" 2 (List.length lines);
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "no value separator: %s" line
          | Some i ->
            let v =
              int_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            in
            Alcotest.(check bool) "positive integer value" true
              (match v with Some n -> n >= 1 | None -> false))
        lines;
      (* stacks are rooted at the collector's track name *)
      Alcotest.(check bool) "inner nested under outer" true
        (List.exists
           (fun l ->
             String.length l > 16 && String.sub l 0 16 = "main;outer;inner")
           lines))

let suites =
  [
    ( "util.pqueue",
      [
        Alcotest.test_case "empty" `Quick test_pqueue_empty;
        Alcotest.test_case "order" `Quick test_pqueue_order;
        Alcotest.test_case "max-queue" `Quick test_pqueue_max_via_cmp;
        Alcotest.test_case "interleaved" `Quick test_pqueue_interleaved;
        prop_pqueue_sorts;
        prop_pqueue_length;
      ] );
    ( "util.interval",
      [
        Alcotest.test_case "make invalid" `Quick test_interval_make_invalid;
        Alcotest.test_case "basics" `Quick test_interval_basics;
        Alcotest.test_case "overlap" `Quick test_interval_overlap;
        Alcotest.test_case "contains" `Quick test_interval_contains;
        Alcotest.test_case "shift" `Quick test_interval_shift;
        prop_interval_overlap_sym;
      ] );
    ( "util.interval_set",
      [
        Alcotest.test_case "empty" `Quick test_iset_empty;
        Alcotest.test_case "add empty interval" `Quick
          test_iset_add_empty_interval;
        Alcotest.test_case "overlaps" `Quick test_iset_overlaps;
        Alcotest.test_case "first_conflict" `Quick test_iset_first_conflict;
        Alcotest.test_case "free_from" `Quick test_iset_free_from;
        prop_iset_free_from_is_free;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "invalid args" `Quick test_rng_invalid;
        Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
        prop_rng_int_bounds;
        prop_rng_int_in_bounds;
        prop_rng_float_bounds;
      ] );
    ( "util.dsu",
      [
        Alcotest.test_case "basics" `Quick test_dsu_basics;
        Alcotest.test_case "idempotent union" `Quick test_dsu_idempotent_union;
        prop_dsu_find_canonical;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "basics" `Quick test_stats_basics;
        Alcotest.test_case "improvement" `Quick test_stats_improvement;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity" `Quick test_table_arity;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "compact" `Quick test_json_compact;
        Alcotest.test_case "escape" `Quick test_json_escape;
        Alcotest.test_case "floats" `Quick test_json_floats;
        Alcotest.test_case "indent" `Quick test_json_indent;
        Alcotest.test_case "parse scalars" `Quick test_json_parse_scalars;
        Alcotest.test_case "parse containers" `Quick
          test_json_parse_containers;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "member" `Quick test_json_member;
        Alcotest.test_case "numeric edges" `Quick test_json_numeric_edges;
        prop_json_roundtrip;
        prop_json_roundtrip_pretty;
        prop_json_roundtrip_full;
      ] );
    ( "util.lru",
      [
        Alcotest.test_case "basics" `Quick test_lru_basics;
        Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "stats and telemetry" `Quick
          test_lru_stats;
        prop_lru_matches_model;
      ] );
    ( "util.telemetry",
      [
        Alcotest.test_case "span nesting" `Quick test_telemetry_span_nesting;
        Alcotest.test_case "span closes on raise" `Quick
          test_telemetry_span_on_raise;
        Alcotest.test_case "disabled is a no-op" `Quick
          test_telemetry_disabled_noop;
        Alcotest.test_case "span hook" `Quick test_telemetry_span_hook;
        Alcotest.test_case "aggregates" `Quick test_telemetry_aggregates;
        Alcotest.test_case "merge is jobs-invariant" `Quick
          test_telemetry_merge_jobs_invariant;
        Alcotest.test_case "chrome export" `Quick test_telemetry_chrome_export;
        Alcotest.test_case "span-tree node round trip" `Quick
          test_telemetry_node_roundtrip;
        Alcotest.test_case "emit_node regrafts a shipped tree" `Quick
          test_telemetry_emit_node_regrafts;
        Alcotest.test_case "folded flamegraph export" `Quick
          test_telemetry_to_folded;
      ] );
    ( "util.histogram",
      [
        Alcotest.test_case "basics" `Quick test_histogram_basics;
        Alcotest.test_case "prometheus shape" `Quick
          test_histogram_prometheus_shape;
        prop_histogram_quantile_bound;
      ] );
  ]
