(* Metric names, units and the result line.

   Every workload reports the same metric set: with tracing off the
   end-to-end metrics, with tracing on the per-layer ones. A layer a
   workload never calls reports 0 work there (see README.md). *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (* observations behind the value *)
}

let metric ?(samples = 1) name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s: %f is not a finite number" name value);
  { name; value; unit_; samples }

let workloads = [ "synth-tall"; "synth-wide"; "serve-mixed" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("dataframe.load_s", "s");
    ("dataframe.parse_s", "s");
    ("dataframe.load_alloc_mb", "MB");
    ("dataframe.payload_parse_ms", "ms");
    ("dataframe.group_cache_hit_rate", "ratio");
    ("core.sampling_s", "s");
    ("core.fill_s", "s");
    ("core.synthesize_alloc_mb", "MB");
    ("core.ci_cache_hit_rate", "ratio");
    ("core.emit_s", "s");
    ("pgm.structure_s", "s");
    ("pgm.enumeration_s", "s");
    ("pgm.structure_parallelism", "ratio");
    ("pgm.dag_count", "count");
    ("stat.ci_tests", "count");
    ("vm.lower_ms", "ms");
    ("vm.detect_ms", "ms");
    ("vm.cache_hit_rate", "ratio");
    ("vm.guard_ms", "ms");
    ("mlmodel.inference_ms", "ms");
    ("mlmodel.predicted_per_scanned", "ratio");
    ("mlmodel.train_s", "s");
    ("sqlexec.query_q1_ms", "ms");
    ("sqlexec.query_q2_ms", "ms");
    ("sqlexec.query_q3_ms", "ms");
    ("sqlexec.query_q4_ms", "ms");
    ("sqlexec.residual_ms", "ms");
    ("service.codec_ms", "ms");
    ("service.execute_detect_ms", "ms");
    ("service.execute_append_ms", "ms");
    ("service.execute_refresh_ms", "ms");
    ("service.execute_sql_ms", "ms");
    ("service.wait_ms", "ms");
    ("service.append_ms", "ms");
    ("service.ingest_advance_ms", "ms");
    ("service.refresh_ms", "ms");
    ("service.refreshed_stmts", "count");
    ("service.stale_keys", "count");
    ("service.load_s", "s");
    ("bench.gen_lag_ms", "ms");
    ("unattributed_s", "s");
    ("unattributed_share", "ratio");
    ("trace_overhead", "ratio");
  ]

(* A name starts with a letter or digit and uses at most 64 of
   [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* The declared metrics of a run, each filled from [measured] (0 with
   no samples when the workload does not exercise it). Raises if a
   measured metric is undeclared or carries another unit. *)
let complete ~declared measured =
  List.iter
    (fun m ->
      match List.assoc_opt m.name declared with
      | Some u when u = m.unit_ -> ()
      | Some u ->
        failwith (Printf.sprintf "metric %s: unit %s, declared %s" m.name m.unit_ u)
      | None -> failwith (Printf.sprintf "metric %s is not declared" m.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) measured with
      | Some m -> m
      | None -> { name; value = 0.; unit_; samples = 0 })
    declared

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* A run's result plus the human-readable lines printed before it. *)
type outcome = { result : result; notes : string list }

let fail_note name ok = if ok then [] else [ "CHECK FAILED: " ^ name ]

let to_json r =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool r.correct);
      ("attempted", Obs.Json.Num (float_of_int r.attempted));
      ("failed", Obs.Json.Num (float_of_int r.failed));
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Obs.Json.Obj
                   [ ("value", Obs.Json.Num m.value); ("unit", Obs.Json.Str m.unit_) ] ))
             r.metrics) );
    ]

let pp_metric oc m =
  Printf.fprintf oc "  %-32s %14.4f %-6s (n=%d)\n" m.name m.value m.unit_ m.samples
