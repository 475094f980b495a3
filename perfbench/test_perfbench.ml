(* Tests of the benchmark's own helpers: the percentile-support rule,
   seeded inputs, metric names, the BENCHMARK.json contract and the
   README's layer map. *)

open Perfbench

let float_eq = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let test_nearest_rank () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  let a = Stats.sorted xs in
  Alcotest.check float_eq "p50" 50. (Stats.percentile a 0.5);
  Alcotest.check float_eq "p95" 95. (Stats.percentile a 0.95);
  Alcotest.check float_eq "p99" 99. (Stats.percentile a 0.99);
  Alcotest.check float_eq "p100" 100. (Stats.percentile a 1.0);
  Alcotest.check float_eq "median of even count" 50.5 (Stats.median xs);
  Alcotest.check float_eq "median of odd count" 2. (Stats.median [ 3.; 1.; 2. ])

let test_support_rule () =
  Alcotest.(check int) "beyond p95 of 200" 10 (Stats.beyond ~n:200 0.95);
  Alcotest.(check bool) "p95 of 200 supported" true (Stats.supported ~n:200 0.95);
  Alcotest.(check bool) "p95 of 199 unsupported" false (Stats.supported ~n:199 0.95);
  Alcotest.(check bool) "p99 of 1000 supported" true (Stats.supported ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 999 unsupported" false (Stats.supported ~n:999 0.99);
  Alcotest.(check bool) "median of one supported" true (Stats.supported ~n:1 0.5);
  Alcotest.(check bool) "nothing of zero samples" false (Stats.supported ~n:0 0.5);
  let xs = List.init 150 float_of_int in
  Alcotest.(check (option (float 0.))) "p95 of 150 withheld" None (Stats.reportable xs 0.95);
  Alcotest.(check (option (float 0.)))
    "p90 of 150 reported" (Some 134.) (Stats.reportable xs 0.9);
  let p, v = Stats.tail xs in
  Alcotest.check float_eq "tail picks p90" 0.9 p;
  Alcotest.check float_eq "tail value" 134. v;
  Alcotest.(check (pair (float 0.) (float 0.))) "tail of few is the median" (0.5, 2.)
    (Stats.tail [ 1.; 2.; 3. ])

let test_failures_miss_percentiles () =
  (* a failed request is an infinite sample: it can only raise a
     percentile *)
  let ok = List.init 199 (fun i -> float_of_int i) in
  let with_failures = List.init 20 (fun _ -> infinity) @ ok in
  Alcotest.(check bool) "p95 is infinite" true
    (Stats.percentile (Stats.sorted with_failures) 0.95 = infinity);
  Alcotest.(check bool) "p50 moved up" true
    (Stats.median with_failures > Stats.median ok)

(* ------------------------------------------------------------------ *)
(* Seeded schedule and payloads *)

let test_schedule_deterministic () =
  let a = Schedule.make ~seed:7 ~seconds:25. in
  let b = Schedule.make ~seed:7 ~seconds:25. in
  let c = Schedule.make ~seed:8 ~seconds:25. in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "other seed, other schedule" true (a <> c)

let test_schedule_shape () =
  let seconds = 25. in
  let s = Schedule.make ~seed:3 ~seconds in
  let d, ap, r, q = Schedule.counts ~seconds in
  Alcotest.(check (list int)) "counts per kind" [ d; ap; r; q ]
    (List.map (fun k -> Schedule.count k s)
       [ Schedule.Detect; Schedule.Append; Schedule.Refresh; Schedule.Sql ]);
  Alcotest.(check int) "SQL divides over the shapes" 0 (q mod Schedule.shapes);
  List.iter
    (fun (x : Schedule.request) ->
      Alcotest.(check bool) "inside the run" true (x.at >= 0. && x.at < seconds);
      Alcotest.(check int)
        "SQL alone on the query stream"
        (if x.kind = Schedule.Sql then 1 else 0)
        x.conn)
    s;
  let times = List.map (fun (x : Schedule.request) -> x.at) s in
  Alcotest.(check bool) "sorted by send time" true (List.sort Float.compare times = times);
  let rec appends_before_refresh seen = function
    | [] -> true
    | (x : Schedule.request) :: rest -> (
      match x.kind with
      | Schedule.Refresh -> seen > 0 && appends_before_refresh seen rest
      | Schedule.Append -> appends_before_refresh (seen + 1) rest
      | _ -> appends_before_refresh seen rest)
  in
  Alcotest.(check bool) "every REFRESH follows an APPEND" true (appends_before_refresh 0 s);
  let shape_counts =
    List.init Schedule.shapes (fun k ->
        List.length
          (List.filter (fun (x : Schedule.request) -> x.kind = Schedule.Sql && x.shape = k) s))
  in
  Alcotest.(check (list int))
    "shapes equally often"
    (List.init Schedule.shapes (fun _ -> q / Schedule.shapes))
    shape_counts

let test_refresh_expectation () =
  Alcotest.(check bool) "a full run must re-fill" true
    (Serve.refresh_expected (Schedule.make ~seed:1 ~seconds:25.));
  Alcotest.(check bool) "a short run need not" false
    (Serve.refresh_expected (Schedule.make ~seed:1 ~seconds:4.))

let test_payloads_deterministic () =
  let env seed = { Serve.exe = ""; dir = ""; seed; seconds = 2. } in
  let a = Serve.make_inputs (env 5) and b = Serve.make_inputs (env 5) in
  let c = Serve.make_inputs (env 6) in
  Alcotest.(check bool) "same seed, same inputs" true (a = b);
  Alcotest.(check bool) "other seed, other table" true (a.Serve.base_csv <> c.Serve.base_csv);
  Alcotest.(check bool) "other seed, other payloads" true
    (a.Serve.detect_payloads <> c.Serve.detect_payloads
    && a.Serve.append_payloads <> c.Serve.append_payloads)

(* ------------------------------------------------------------------ *)
(* Names and the result line *)

let test_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Report.valid_name n))
    (Report.workloads @ List.map fst Report.end_to_end @ List.map fst Report.per_layer);
  List.iter
    (fun n -> Alcotest.(check bool) ("rejects " ^ n) false (Report.valid_name n))
    [ ""; "a b"; "-lead"; ".lead"; "p/s"; String.make 65 'a' ];
  let names = List.map fst (Report.end_to_end @ Report.per_layer) in
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_complete () =
  let ms = Report.complete ~declared:Report.end_to_end [ Report.metric "setup_s" "s" 1.5 ] in
  Alcotest.(check (list string)) "every declared metric, in order"
    (List.map fst Report.end_to_end) (List.map (fun m -> m.Report.name) ms);
  Alcotest.check_raises "undeclared" (Failure "metric nope is not declared") (fun () ->
      ignore (Report.complete ~declared:Report.end_to_end [ Report.metric "nope" "s" 1. ]));
  Alcotest.check_raises "non-finite" (Failure "metric x: nan is not a finite number") (fun () ->
      ignore (Report.metric "x" "s" nan));
  let r = { Report.correct = true; attempted = 3; failed = 0; metrics = ms } in
  match Report.to_json r with
  | Obs.Json.Obj kvs ->
    Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "result is not an object"

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

let benchmark_json () =
  Obs.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)

let str_field k j = Option.get (Option.bind (Obs.Json.member k j) Obs.Json.to_str)

let test_benchmark_json () =
  let j = benchmark_json () in
  Alcotest.(check bool) "round-trips" true (Obs.Json.parse (Obs.Json.to_string j) = j);
  (match j with
   | Obs.Json.Obj kvs ->
     Alcotest.(check (list string)) "keys"
       [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
       (List.sort String.compare (List.map fst kvs))
   | _ -> Alcotest.fail "not an object");
  let list k = Option.get (Option.bind (Obs.Json.member k j) Obs.Json.to_list) in
  Alcotest.(check (list string))
    "workloads" Report.workloads
    (List.map (str_field "name") (list "workloads"));
  let metrics k = List.map (fun m -> (str_field "name" m, str_field "unit" m)) (list k) in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Report.end_to_end (metrics "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Report.per_layer (metrics "per_layer");
  List.iter
    (fun m ->
      let bound = Option.get (Option.bind (Obs.Json.member "bound" m) Obs.Json.to_float) in
      Alcotest.(check bool) "bound within 0.25" true (bound > 0. && bound <= 0.25);
      Alcotest.(check string) "lower is better" "lower" (str_field "better" m))
    (list "end_to_end");
  let setup = List.find (fun m -> str_field "name" m = "setup_s") (list "end_to_end") in
  let bound m = Option.get (Option.bind (Obs.Json.member "bound" m) Obs.Json.to_float) in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun m -> bound m <= bound setup) (list "end_to_end"))

(* The README gives each workload's reason and maps every per-layer
   metric to the end-to-end metric it should move. *)
let test_readme () =
  let text = In_channel.with_open_bin "README.md" In_channel.input_all in
  let mentions s =
    let n = String.length s and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n -> Alcotest.(check bool) ("README mentions " ^ n) true (mentions ("`" ^ n ^ "`")))
    (Report.workloads @ List.map fst Report.end_to_end @ List.map fst Report.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_nearest_rank;
          Alcotest.test_case "percentile support rule" `Quick test_support_rule;
          Alcotest.test_case "failures miss percentiles" `Quick test_failures_miss_percentiles;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "schedule is seeded" `Quick test_schedule_deterministic;
          Alcotest.test_case "schedule follows its rules" `Quick test_schedule_shape;
          Alcotest.test_case "REFRESH re-fill expectation" `Quick test_refresh_expectation;
          Alcotest.test_case "payloads are seeded" `Slow test_payloads_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "metric and workload names" `Quick test_names;
          Alcotest.test_case "declared metric set" `Quick test_complete;
          Alcotest.test_case "BENCHMARK.json contract" `Quick test_benchmark_json;
          Alcotest.test_case "README layer map" `Quick test_readme;
        ] );
    ]
