(* Tests for lib/obs: span nesting (same-domain and across the Domain
   pool), the disabled-mode zero-allocation guarantee, metric registry
   semantics including histogram bucket boundaries, Chrome trace-event
   JSON export/re-import, and the span-derived Synthesize phase
   timings. *)

module Span = Obs.Span
module Collector = Obs.Collector
module Metric = Obs.Metric
module Trace = Obs.Trace
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  let c = Collector.create () in
  Trace.with_collector c (fun () ->
      Span.with_ "outer" (fun () ->
          Span.with_ "inner" (fun () -> ignore (Sys.opaque_identity 1));
          Span.with_ "inner" (fun () -> ignore (Sys.opaque_identity 2))));
  let events = Collector.events c in
  Alcotest.(check int) "three spans" 3 (List.length events);
  let outer =
    List.find (fun (e : Collector.event) -> e.Collector.name = "outer") events
  in
  Alcotest.(check int) "outer is a root" (-1) outer.Collector.parent;
  let inners = Collector.children events ~parent:outer.Collector.id in
  Alcotest.(check int) "two children" 2 (List.length inners);
  List.iter
    (fun (e : Collector.event) ->
      Alcotest.(check string) "child name" "inner" e.Collector.name;
      Alcotest.(check bool) "child within parent" true
        (e.Collector.dur_s <= outer.Collector.dur_s +. 1e-9))
    inners;
  (* self time of the parent excludes the children *)
  Alcotest.(check bool) "self <= dur" true
    (outer.Collector.self_s <= outer.Collector.dur_s +. 1e-9)

let test_span_error_attr () =
  let c = Collector.create () in
  (try
     Trace.with_collector c (fun () ->
         Span.with_ "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  match Collector.events c with
  | [ e ] ->
    Alcotest.(check bool) "error attr recorded" true
      (List.mem_assoc "error" e.Collector.attrs)
  | _ -> Alcotest.fail "expected exactly one span"

let test_span_nesting_across_pool () =
  let pool = Runtime.Pool.create ~size:2 () in
  let c = Collector.create () in
  Trace.with_collector c (fun () ->
      Span.with_ "root" (fun () ->
          let out =
            Runtime.Pool.parmap ~pool ~chunk:1
              (fun i -> Span.with_ "leaf" (fun () -> i * i))
              [ 1; 2; 3; 4; 5; 6 ]
          in
          Alcotest.(check (list int)) "parmap result" [ 1; 4; 9; 16; 25; 36 ] out));
  Runtime.Pool.shutdown pool;
  let events = Collector.events c in
  let root =
    List.find (fun (e : Collector.event) -> e.Collector.name = "root") events
  in
  let leaves =
    List.filter (fun (e : Collector.event) -> e.Collector.name = "leaf") events
  in
  Alcotest.(check int) "all leaves recorded" 6 (List.length leaves);
  (* the submit-time context makes worker-domain spans children of the
     submitting span even though they ran on other domains *)
  List.iter
    (fun (e : Collector.event) ->
      Alcotest.(check int) "leaf nests under root" root.Collector.id
        e.Collector.parent)
    leaves

let test_disabled_spans_allocation_free () =
  (* no collector installed: with_ must not allocate. One warm-up call
     initialises the domain-local state, then 10k spans must stay within
     a tiny slack (zero on a quiet domain, but the GC owes us nothing). *)
  Alcotest.(check bool) "tracing off" false (Span.enabled ());
  let body = fun () -> ignore (Sys.opaque_identity 0) in
  Span.with_ "warmup" body;
  let before = Gc.allocated_bytes () in
  for _ = 1 to 10_000 do
    Span.with_ "off" body
  done;
  let delta = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled spans allocate nothing (%.0f bytes/10k)" delta)
    true (delta < 256.0)

let test_ctx_off_constant () =
  Alcotest.(check bool) "ctx off when disabled" true (Span.is_off (Span.ctx ()));
  Span.with_ctx (Span.ctx ()) (fun () -> ())

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_and_gauge () =
  let reg = Metric.create () in
  let c = Metric.counter reg "c" in
  Metric.incr c;
  Metric.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metric.counter_value c);
  Alcotest.(check int) "same handle by name" 5
    (Metric.counter_value (Metric.counter reg "c"));
  let g = Metric.gauge reg "g" in
  Metric.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metric.gauge_value g);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Metric.gauge reg "c");
       false
     with Invalid_argument _ -> true)

let test_histogram_bucket_boundaries () =
  let reg = Metric.create () in
  let h = Metric.histogram ~bounds:[| 1.0; 2.0; 4.0 |] reg "h" in
  (* a value exactly on a bound lands in that bucket (v <= bound) *)
  List.iter (Metric.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 5.0 ];
  match (Metric.snapshot reg).Metric.histograms with
  | [ s ] ->
    Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 1 |]
      s.Metric.counts;
    Alcotest.(check int) "total" 7 s.Metric.total;
    Alcotest.(check (float 1e-9)) "sum" 17.0 s.Metric.sum;
    Alcotest.(check (float 0.0)) "max" 5.0 s.Metric.max_value
  | _ -> Alcotest.fail "expected one histogram"

let test_snapshot_sorted_and_clear () =
  let reg = Metric.create () in
  Metric.incr (Metric.counter reg "b");
  Metric.incr (Metric.counter reg "a");
  let s = Metric.snapshot reg in
  Alcotest.(check (list string)) "counters sorted" [ "a"; "b" ]
    (List.map fst s.Metric.counters);
  Metric.clear reg;
  Alcotest.(check int) "cleared" 0
    (List.length (Metric.snapshot reg).Metric.counters)

(* ------------------------------------------------------------------ *)
(* Chrome JSON *)

let test_chrome_json_roundtrip () =
  let c = Collector.create () in
  Trace.with_collector c (fun () ->
      Span.with_ "parent"
        ~attrs:(fun () -> [ ("k", "v"); ("weird", "a\"b\\c\n\t") ])
        (fun () -> Span.with_ "child" (fun () -> ())));
  let json = Trace.to_chrome_json c in
  (* structurally valid Chrome trace: an object with a traceEvents list
     of "X" complete events *)
  let v = Json.parse json in
  let get what = function
    | Some x -> x
    | None -> Alcotest.fail ("missing " ^ what)
  in
  let evs =
    get "traceEvents list"
      (Option.bind (Json.member "traceEvents" v) Json.to_list)
  in
  Alcotest.(check int) "two trace events" 2 (List.length evs);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X"
        (get "ph" (Option.bind (Json.member "ph" e) Json.to_str)))
    evs;
  (* round-trip back into collector events (the export is start-time
     ordered, the collector completion ordered — align by id) *)
  let by_id l =
    List.sort
      (fun (a : Collector.event) (b : Collector.event) ->
        compare a.Collector.id b.Collector.id)
      l
  in
  let original = by_id (Collector.events c) in
  let reread = by_id (Trace.events_of_chrome_json json) in
  Alcotest.(check int) "same count" (List.length original) (List.length reread);
  List.iter2
    (fun (a : Collector.event) (b : Collector.event) ->
      Alcotest.(check string) "name" a.Collector.name b.Collector.name;
      Alcotest.(check int) "id" a.Collector.id b.Collector.id;
      Alcotest.(check int) "parent" a.Collector.parent b.Collector.parent;
      (* timestamps survive up to the format's microsecond granularity *)
      Alcotest.(check bool) "dur within 1us" true
        (Float.abs (a.Collector.dur_s -. b.Collector.dur_s) <= 1e-6);
      let assoc k l = List.assoc_opt k l in
      Alcotest.(check (option string)) "attr k" (assoc "k" a.Collector.attrs)
        (assoc "k" b.Collector.attrs);
      Alcotest.(check (option string)) "escaped attr"
        (assoc "weird" a.Collector.attrs)
        (assoc "weird" b.Collector.attrs))
    original reread;
  (* and the summary names every span *)
  let summary = Trace.summary c in
  List.iter
    (fun (e : Collector.event) ->
      let needle = e.Collector.name in
      let n = String.length needle and h = String.length summary in
      let rec go i =
        i + n <= h && (String.sub summary i n = needle || go (i + 1))
      in
      Alcotest.(check bool) ("summary mentions " ^ needle) true (go 0))
    original

let test_json_parse_rejects_garbage () =
  let rejected s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated" true (rejected "{\"a\": [1, 2");
  Alcotest.(check bool) "trailing" true (rejected "{} x");
  Alcotest.(check bool) "bare word" true (rejected "tru");
  (* numbers, escapes and nesting round-trip through the printer *)
  let v =
    Json.Obj
      [ ("i", Json.Num 3.0);
        ("f", Json.Num 0.125);
        ("s", Json.Str "a\"b\\c\n\x01");
        ("l", Json.List [ Json.Bool true; Json.Null ]) ]
  in
  Alcotest.(check bool) "printer/parser round-trip" true
    (Json.parse (Json.to_string v) = v)

(* ------------------------------------------------------------------ *)
(* Span-derived synthesis timing *)

let postal_frame () =
  let base =
    [ "94704,Berkeley,CA,USA"; "94612,Oakland,CA,USA"; "89501,Reno,NV,USA";
      "69001,Lyon,ARA,France"; "94704,Berkeley,CA,USA"; "89501,Reno,NV,USA" ]
  in
  let rows = List.concat (List.init 40 (fun _ -> base)) in
  Dataframe.Csv.of_string
    ("postal_code,city,state,country\n" ^ String.concat "\n" rows ^ "\n")

let check_phase_sums (t : Guardrail.Synthesize.timing) =
  let total = Guardrail.Synthesize.total_time t in
  let phases =
    t.Guardrail.Synthesize.sampling_s +. t.Guardrail.Synthesize.structure_s
    +. t.Guardrail.Synthesize.enumeration_s +. t.Guardrail.Synthesize.fill_s
  in
  Alcotest.(check bool) "total positive" true (total > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "phase sum %.6f <= total %.6f" phases total)
    true
    (phases <= total +. 1e-6)

(* regression for the hand-kept-accumulator bug: phase totals are now
   derived from the spans under the run's root, so they can never sum
   past the run's wall time — at any job count *)
let test_timing_phases_bounded () =
  let frame = postal_frame () in
  check_phase_sums (Guardrail.Synthesize.run frame).Guardrail.Synthesize.timing;
  let pool = Runtime.Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.shutdown pool)
    (fun () ->
      check_phase_sums
        (Guardrail.Synthesize.run ~pool frame).Guardrail.Synthesize.timing)

let test_trace_does_not_change_output () =
  let frame = postal_frame () in
  let plain = Guardrail.Synthesize.run frame in
  let c = Collector.create () in
  let traced =
    Trace.with_collector c (fun () -> Guardrail.Synthesize.run frame)
  in
  Alcotest.(check string) "identical program"
    (Guardrail.Pretty.prog_to_string plain.Guardrail.Synthesize.program)
    (Guardrail.Pretty.prog_to_string traced.Guardrail.Synthesize.program);
  Alcotest.(check int) "identical cache hits"
    plain.Guardrail.Synthesize.cache_hits traced.Guardrail.Synthesize.cache_hits;
  (* the trace observed the run: a root with the phase spans under it *)
  let events = Collector.events c in
  let root =
    List.find
      (fun (e : Collector.event) -> e.Collector.name = "synthesize")
      events
  in
  let phase_names =
    List.map
      (fun (e : Collector.event) -> e.Collector.name)
      (Collector.children events ~parent:root.Collector.id)
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("trace has phase " ^ phase) true
        (List.mem phase phase_names))
    [ "sampling"; "structure"; "enumeration"; "fill" ];
  (* nested instrumentation: PC conditioning levels and per-sketch fills *)
  List.iter
    (fun nested ->
      Alcotest.(check bool) ("trace has nested " ^ nested) true
        (List.exists
           (fun (e : Collector.event) -> e.Collector.name = nested)
           events))
    [ "pc.level"; "fill.sketch" ]

(* ------------------------------------------------------------------ *)
(* Library counters under concurrency *)

module Frame = Dataframe.Frame
module Group = Dataframe.Group
module Validator = Guardrail.Validator

(* The counters the libraries keep in [Metric.default]. *)
let library_counters =
  [ "ci.tests"; "ci.conservative"; "group.cache.hits"; "group.cache.misses";
    "group.cache.extended"; "group.cache.rebuilt"; "vm.cache.hits";
    "vm.cache.misses"; "vm.cache.advanced"; "vm.rows.validated" ]

let counter_values () =
  List.map (fun n -> Metric.counter_value (Metric.counter Metric.default n)) library_counters

(* Bump every library counter once through its owner's public API: CI
   tests (one conservative), a group cache miss, hit, extension and
   rebuild, a bytecode cache miss, hit and advance, and validated
   rows. Inputs are built first so that none of this runs before the
   caller says go. *)
let counter_workload () =
  let frame = postal_frame () in
  let grown = Frame.extend frame (postal_frame ()) in
  let compiled =
    Validator.compile
      (Guardrail.Parse.prog (Frame.schema frame)
         "GIVEN postal_code ON city HAVING IF postal_code = 94704 THEN city <- \"Berkeley\";")
  in
  let spec = Stat.Ci.make ~alpha:0.05 ~kx:2 ~ky:2 () in
  let capped = Stat.Ci.make ~alpha:0.05 ~kx:2 ~ky:2 ~max_strata:1 () in
  let xs = [| 0; 1; 0; 1 |] and ys = [| 0; 1; 1; 0 |] in
  fun () ->
    ignore (Stat.Ci.test spec xs ys [] []);
    ignore (Stat.Ci.test capped xs ys [ xs ] [ 2 ]);
    let cache = Group.Cache.of_frame frame in
    ignore (Group.Cache.get cache [ 0 ]);
    ignore (Group.Cache.get cache [ 0 ]);
    ignore (Group.Cache.get (Group.Cache.advance cache grown) [ 0 ]);
    ignore (Group.Cache.advance cache (postal_frame ()));
    ignore (Validator.detect compiled frame);
    ignore (Validator.detect compiled frame);
    ignore (Validator.detect compiled grown)

(* [domains] domains run [counter_workload] released at the same
   instant, so the first use of each counter in a process is raced. *)
let race_counters ~domains =
  let work = List.init domains (fun _ -> counter_workload ()) in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let spawned =
    List.map
      (fun w ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do Domain.cpu_relax () done;
            w ()))
      work
  in
  while Atomic.get ready < domains do Domain.cpu_relax () done;
  Atomic.set go true;
  List.iter Domain.join spawned

(* A counter's first use happens once per process, so the race is
   re-run in fresh copies of this executable: with this variable set,
   it races the counters and exits instead of running the suite. *)
let race_child_var = "OBS_TEST_RACE_COUNTERS"

let test_library_counters_concurrent () =
  for _ = 1 to 20 do
    let env = Array.append [| race_child_var ^ "=1" |] (Unix.environment ()) in
    let pid =
      Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _, (Unix.WEXITED k | Unix.WSIGNALED k | Unix.WSTOPPED k) ->
      Alcotest.failf "racing process ended with status %d" k
  done;
  (* and every bump is counted *)
  let before = counter_values () in
  race_counters ~domains:4;
  let rises =
    List.map2 (fun (name, b) a -> (name, a - b))
      (List.combine library_counters before) (counter_values ())
  in
  List.iter (fun (name, r) -> Alcotest.(check bool) (name ^ " rose") true (r > 0)) rises;
  Alcotest.(check int) "ci.tests, two per domain" 8 (List.assoc "ci.tests" rises);
  Alcotest.(check int) "vm.cache.hits, one per domain" 4 (List.assoc "vm.cache.hits" rises)

let () =
  if Sys.getenv_opt race_child_var = Some "1" then begin
    race_counters ~domains:2;
    exit 0
  end

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and self time" `Quick test_span_nesting;
          Alcotest.test_case "error attribute" `Quick test_span_error_attr;
          Alcotest.test_case "nesting across the pool" `Quick
            test_span_nesting_across_pool;
          Alcotest.test_case "disabled mode allocation-free" `Quick
            test_disabled_spans_allocation_free;
          Alcotest.test_case "off context is constant" `Quick
            test_ctx_off_constant;
        ] );
      ( "metric",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "snapshot sorted, clear" `Quick
            test_snapshot_sorted_and_clear;
          Alcotest.test_case "library counters under concurrency" `Quick
            test_library_counters_concurrent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome JSON round-trip" `Quick
            test_chrome_json_roundtrip;
          Alcotest.test_case "json parser strictness" `Quick
            test_json_parse_rejects_garbage;
        ] );
      ( "synthesize",
        [
          Alcotest.test_case "phase sums bounded by wall" `Quick
            test_timing_phases_bounded;
          Alcotest.test_case "tracing does not change output" `Quick
            test_trace_does_not_change_output;
        ] );
    ]
