(* The synthesis workloads: [guardrail synthesize FILE -o OUT] spawned
   as a child process, one operation being one pass over the
   workload's files.

   A run that exits non-zero is a failed operation, and its pass misses
   every latency percentile. Checks, over the runs that exited 0: the
   program is byte-identical across repeats, to an in-process
   [Synthesize.run] on the same file (traced when tracing is on), and
   (at jobs > 1) to a jobs-1 CLI run; the statement count and coverage
   the CLI prints match the in-process result. *)

module Synthesize = Guardrail.Synthesize

type spec = {
  name : string;
  datasets : (int * int option) list;  (* Table-2 id, row-count override *)
  jobs : int;
}

let tall = { name = "synth-tall"; datasets = [ (11, Some 110_550) ]; jobs = 1 }

let wide =
  {
    name = "synth-wide";
    datasets = [ (3, None); (7, None); (9, None); (11, None) ];
    jobs = 2;
  }

type env = {
  exe : string;   (* the guardrail CLI *)
  dir : string;   (* scratch directory inside the checkout *)
  seed : int;
  seconds : float;
}

(* Set-up is repeated at least this often, and until this long has
   passed, and reported as the median. *)
let setup_reps = 3
let setup_budget_s = 3.

let csv_path env (id, _) = Filename.concat env.dir (Printf.sprintf "ds%d.csv" id)

(* Generate and write every input file; returns the wall time. *)
let make_inputs env spec =
  let t0 = Proc.now () in
  List.iter
    (fun ((id, n_rows) as ds) ->
      let _, frame =
        Datagen.Generate.dataset ?n_rows ~seed_offset:env.seed (Datagen.Spec.by_id id)
      in
      Dataframe.Csv.save frame (csv_path env ds))
    spec.datasets;
  Proc.now () -. t0

type run = {
  exit : Proc.exit;
  wall_s : float;
  program : string;          (* the CLI's output file *)
  log : string;              (* the CLI's stderr *)
  summary : (int * string) option;  (* statements, coverage as printed *)
}

let cli_run env ~jobs ds =
  let out = Filename.concat env.dir "out.grl" in
  let log = Filename.concat env.dir "cli.log" in
  if Sys.file_exists out then Sys.remove out;
  let exit, wall_s =
    Proc.run ~stderr:log env.exe
      [ "synthesize"; csv_path env ds; "-o"; out; "--jobs"; string_of_int jobs ]
  in
  let program = if Sys.file_exists out then Proc.read_file out else "" in
  let log = Proc.read_file log in
  let summary =
    try Scanf.sscanf log "synthesized %d statements (coverage %s@," (fun n c -> Some (n, c))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None
  in
  { exit; wall_s; program; log; summary }

let ok (r : run) = r.exit.Proc.code = 0

type pass = { runs : run list; wall : float; cpu : float; rss_kb : int }

let cli_pass env spec ~jobs =
  let runs = List.map (cli_run env ~jobs) spec.datasets in
  {
    runs;
    wall = Stats.sum (List.map (fun r -> r.wall_s) runs);
    cpu = Stats.sum (List.map (fun r -> r.exit.Proc.cpu_s) runs);
    rss_kb = List.fold_left (fun m r -> max m r.exit.Proc.peak_rss_kb) 0 runs;
  }

(* ------------------------------------------------------------------ *)
(* In-process pipeline, the CLI's steps with a span around each layer
   call when a collector is installed. *)

let config jobs = Guardrail.Config.make ~epsilon:0.05 ~alpha:0.01 ~jobs ()

type inproc = {
  text : string;
  result : Synthesize.result;
}

let pipeline env spec ds =
  let path = csv_path env ds in
  let frame = Obs.Span.with_ "dataframe.load" (fun () -> Dataframe.Csv.load path) in
  let result =
    Obs.Span.with_ "core.synthesize" (fun () ->
        Synthesize.run ~config:(config spec.jobs) frame)
  in
  let text =
    Obs.Span.with_ "core.emit" (fun () ->
        let text = Guardrail.Pretty.prog_to_string result.Synthesize.program ^ "\n" in
        Proc.write_file (Filename.concat env.dir "inproc.grl") text;
        text)
  in
  { text; result }

(* [Csv.parse_string] alone on the same bytes: a probe of the parsing
   share of [Csv.load], not a step of the pipeline. *)
let parse_probe env ds =
  let bytes = Proc.read_file (csv_path env ds) in
  Obs.Span.with_ "dataframe.parse" (fun () -> ignore (Dataframe.Csv.parse_string bytes))

(* ------------------------------------------------------------------ *)
(* Checks *)

let check_pass ~reference pass =
  List.for_all2 (fun r text -> (not (ok r)) || Some r.program = text) pass.runs reference

let check_summary (run : run) (ip : inproc) =
  match run.summary with
  | None -> false
  | Some (n, cov) ->
    n = Guardrail.Dsl.stmt_count ip.result.Synthesize.program
    && cov = Printf.sprintf "%.3f" ip.result.Synthesize.coverage

let run env spec ~trace =
  let setups =
    if trace then [ make_inputs env spec ]
    else
      Proc.repeat ~min:setup_reps ~budget_s:setup_budget_s (fun () ->
          make_inputs env spec)
  in
  (* measured passes at the workload's job count *)
  let t_start = Proc.now () in
  let passes = ref [] in
  while Proc.now () -. t_start < env.seconds || List.length !passes < 3 do
    passes := cli_pass env spec ~jobs:spec.jobs :: !passes
  done;
  let passes = List.rev !passes in
  (* per file, the first run that exited 0: the reference output *)
  let firsts =
    List.mapi
      (fun i _ -> List.find_opt ok (List.map (fun p -> List.nth p.runs i) passes))
      spec.datasets
  in
  let reference = List.map (Option.map (fun r -> r.program)) firsts in
  let output_ok = List.for_all Option.is_some firsts in
  let repeat_ok = List.for_all (check_pass ~reference) passes in
  (* jobs 1 must give the same bytes *)
  let serial = if spec.jobs > 1 then [ cli_pass env spec ~jobs:1 ] else [] in
  let serial_ok = List.for_all (check_pass ~reference) serial in
  let all_runs = List.concat_map (fun p -> p.runs) (passes @ serial) in
  let attempted = List.length all_runs in
  let failed = List.length (List.filter (fun r -> not (ok r)) all_runs) in
  let whole = List.filter (fun p -> List.for_all ok p.runs) passes in
  let op_wall =
    Stats.median (List.map (fun p -> if List.memq p whole then p.wall else infinity) passes)
  in
  (* traced run: the pipeline in process, untraced for the overhead
     baseline, then traced; both must print the CLI's bytes *)
  let inproc () =
    let t0 = Proc.now () in
    let ips = List.map (pipeline env spec) spec.datasets in
    (ips, Proc.now () -. t0)
  in
  let collector = Obs.Collector.create () in
  let counter_names = [ "group.cache.hits"; "group.cache.misses"; "ci.tests" ] in
  let untraced, traced, overhead, counter_delta =
    if not trace then ([], [], 0., [])
    else begin
      let untraced, untraced_s = inproc () in
      let (traced, traced_s), delta =
        Spans.counting counter_names (fun () -> Obs.Trace.with_collector collector inproc)
      in
      Obs.Trace.with_collector collector (fun () ->
          List.iter (parse_probe env) spec.datasets);
      (untraced, traced, traced_s /. untraced_s, delta)
    end
  in
  let inproc_ok =
    List.for_all
      (fun ips -> List.for_all2 (fun ip text -> Some ip.text = text) ips reference)
      (if trace then [ untraced; traced ] else [])
  in
  let summary_ok =
    (not trace)
    || List.for_all2
         (fun r ip -> match r with Some r -> check_summary r ip | None -> false)
         firsts traced
  in
  let correct = output_ok && repeat_ok && serial_ok && inproc_ok && summary_ok in
  let notes =
    List.concat
      [
        List.filter_map
          (fun r ->
            if r.exit.Proc.code = 0 then None
            else
              Some
                (Printf.sprintf "FAILED CLI run, exit %d: %s" r.exit.Proc.code
                   (String.trim r.log)))
          all_runs;
        Report.fail_note "every file has a run that exited 0" output_ok;
        Report.fail_note "program identical across repeats" repeat_ok;
        Report.fail_note "program identical at jobs 1" serial_ok;
        Report.fail_note "program identical to the in-process run" inproc_ok;
        Report.fail_note "CLI summary matches the in-process run" summary_ok;
        List.map2
          (fun (id, _) (r : run option) ->
            match Option.bind r (fun r -> r.summary) with
            | Some (n, cov) ->
              Printf.sprintf "dataset %d: %d statements, coverage %s" id n cov
            | None -> Printf.sprintf "dataset %d: no summary printed" id)
          spec.datasets firsts;
        [
          Printf.sprintf "wall_s %.4f s (n=%d passes, jobs %d): %s" op_wall
            (List.length passes) spec.jobs
            (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
          Printf.sprintf "error_rate %.4f (%d/%d CLI runs failed)"
            (float_of_int failed /. float_of_int attempted) failed attempted;
        ];
      ]
  in
  let metrics =
    if not trace then
      let n = List.length passes in
      Report.complete ~declared:Report.end_to_end
        [
          Report.metric ~samples:(List.length setups) "setup_s" "s" (Stats.median setups);
          Report.metric ~samples:n "op_p50_ms" "ms" (1e3 *. op_wall);
          Report.metric ~samples:(List.length whole) "cpu_ms_per_op" "ms"
            (1e3 *. Stats.median (List.map (fun p -> p.cpu) whole));
          Report.metric ~samples:(List.length whole) "peak_rss_mb" "MB"
            (Stats.median (List.map (fun p -> float_of_int p.rss_kb /. 1024.) whole));
        ]
    else begin
      let spans = Spans.of_collector collector in
      let dur = Spans.dur spans and alloc_mb = Spans.alloc_mb spans in
      let timing f =
        Stats.sum (List.map (fun (ip : inproc) -> f ip.result.Synthesize.timing) traced)
      in
      let res f = List.fold_left (fun a (ip : inproc) -> a + f ip.result) 0 traced in
      let counter n = List.assoc n counter_delta in
      let layer_sum = dur "dataframe.load" +. dur "core.synthesize" +. dur "core.emit" in
      let unattributed = op_wall -. layer_sum in
      let structure = timing (fun t -> t.Synthesize.structure_s) in
      Proc.write_file (Filename.concat env.dir "trace.json")
        (Obs.Trace.to_chrome_json collector);
      Report.complete ~declared:Report.per_layer
        [
          Report.metric "dataframe.load_s" "s" (dur "dataframe.load");
          Report.metric "dataframe.parse_s" "s" (dur "dataframe.parse");
          Report.metric "dataframe.load_alloc_mb" "MB" (alloc_mb "dataframe.load");
          Report.metric "dataframe.group_cache_hit_rate" "ratio"
            (Spans.share (counter "group.cache.hits") (counter "group.cache.misses"));
          Report.metric "core.sampling_s" "s" (timing (fun t -> t.Synthesize.sampling_s));
          Report.metric "core.fill_s" "s" (timing (fun t -> t.Synthesize.fill_s));
          Report.metric "core.synthesize_alloc_mb" "MB" (alloc_mb "core.synthesize");
          Report.metric "core.ci_cache_hit_rate" "ratio"
            (Spans.share (float_of_int (res (fun r -> r.Synthesize.cache_hits)))
               (float_of_int (res (fun r -> r.Synthesize.cache_misses))));
          Report.metric "core.emit_s" "s" (dur "core.emit");
          Report.metric "pgm.structure_s" "s" structure;
          Report.metric "pgm.enumeration_s" "s"
            (timing (fun t -> t.Synthesize.enumeration_s));
          Report.metric "pgm.structure_parallelism" "ratio"
            (if structure > 0. then
               timing (fun t -> t.Synthesize.structure_work_s) /. structure
             else 0.);
          Report.metric "pgm.dag_count" "count"
            (float_of_int (res (fun r -> r.Synthesize.dag_count)));
          Report.metric "stat.ci_tests" "count" (counter "ci.tests");
          Report.metric "unattributed_s" "s" unattributed;
          Report.metric "unattributed_share" "ratio" (unattributed /. op_wall);
          Report.metric "trace_overhead" "ratio" overhead;
        ]
    end
  in
  { Report.result = { Report.correct; attempted; failed; metrics }; notes }
