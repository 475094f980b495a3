(* The serve-mixed workload: one load process drives a
   [guardrail serve --pool 2] child over two unix-socket connections
   on the open-loop schedule of {!Schedule}, against dataset 12 (Hotel)
   at Table-2 scale, loaded with its synthesized program and a model on
   its label.

   Latency is timed from each request's scheduled send time. A single
   thread multiplexes both connections with [select]: it writes each
   request when it falls due, whatever is still outstanding, and
   matches replies to requests in order per connection.

   Error_reply, Busy_reply, undecodable replies, timeouts and dropped
   connections are failed operations, which miss every latency
   percentile. Checks: every other reply has the type its request
   expects; TABLES shows the base rows plus the acked APPEND rows; the
   STATS command counts and errors equal what was sent and seen; some
   REFRESH re-fills at least one statement; the daemon exits 0 on
   SHUTDOWN.

   With tracing on, the same seeded request sequence is also replayed
   in process, calling each layer's public functions inside spans. *)

module Frame = Dataframe.Frame
module Protocol = Service.Protocol
module Registry = Service.Registry

type env = Synth.env = {
  exe : string;
  dir : string;
  seed : int;
  seconds : float;
}

let dataset_id = 12
let table = "t"
let detect_rows = 200
let append_rows = 500
let pool = 2

(* A send later than this flags the run: the generator, not the daemon,
   set some of its latencies. *)
let behind_ms = 100.

(* Every [corrupt_every]-th APPEND batch (starting with the first) gets
   the statement column's value replaced in [corrupt_rows] of its rows,
   so the drift monitor flags the statement and REFRESH re-fills it. *)
let corrupt_every = 2
let corrupt_rows = 500

(* Corrupted batches after which the drift monitor must have fired:
   1,500 rewritten rows shift the statement's violation rate by about
   4% of the table, twice the monitor's absolute threshold. *)
let corrupt_batches_to_fire = 3

(* Whether some REFRESH comes after enough corrupted APPENDs that it
   must re-fill a statement. Both run on the ingest connection, whose
   replies keep request order. *)
let refresh_expected schedule =
  let rec go corrupted = function
    | [] -> false
    | (r : Schedule.request) :: rest -> (
      match r.kind with
      | Schedule.Append when r.ordinal mod corrupt_every = 0 -> go (corrupted + 1) rest
      | Schedule.Refresh when corrupted >= corrupt_batches_to_fire -> true
      | _ -> go corrupted rest)
  in
  go 0 schedule

type inputs = {
  base_csv : string;
  base_rows : int;
  program : string;
  statements : int;
  label : string;
  detect_payloads : string array;
  append_payloads : string array;
  queries : Datagen.Workloads.query array;
  schedule : Schedule.request list;
}

let slices frame ~offset ~count ~rows =
  Array.init count (fun i ->
      Frame.take frame (Array.init rows (fun r -> offset + (i * rows) + r)))

let make_inputs env =
  let spec = Datagen.Spec.by_id dataset_id in
  let built, frame = Datagen.Generate.dataset ~seed_offset:env.seed spec in
  let result = Guardrail.Synthesize.run ~config:(Synth.config 1) frame in
  let prog = result.Guardrail.Synthesize.program in
  let schedule = Schedule.make ~seed:env.seed ~seconds:env.seconds in
  let n_detect = Schedule.count Schedule.Detect schedule in
  let n_append = Schedule.count Schedule.Append schedule in
  let _, fresh =
    Datagen.Generate.dataset
      ~n_rows:((n_detect * detect_rows) + (n_append * append_rows))
      ~seed_offset:(env.seed + 1_000_003) spec
  in
  let target =
    match prog.Guardrail.Dsl.stmts with
    | s :: _ -> s.Guardrail.Dsl.on
    | [] -> failwith "serve-mixed: synthesis found no statement to guard"
  in
  let corrupt i batch =
    if i mod corrupt_every <> 0 then batch
    else
      (Datagen.Corrupt.inject ~seed:(env.seed + i) ~n_errors:corrupt_rows
         ~columns:[ target ] batch)
        .Datagen.Corrupt.corrupted
  in
  let appends =
    slices fresh ~offset:(n_detect * detect_rows) ~count:n_append ~rows:append_rows
  in
  let detects = slices fresh ~offset:0 ~count:n_detect ~rows:detect_rows in
  {
    base_csv = Dataframe.Csv.to_string frame;
    base_rows = Frame.nrows frame;
    program = Guardrail.Pretty.prog_to_string prog;
    statements = Guardrail.Dsl.stmt_count prog;
    label = spec.Datagen.Spec.label;
    detect_payloads = Array.map Dataframe.Csv.to_string detects;
    append_payloads = Array.mapi (fun i b -> Dataframe.Csv.to_string (corrupt i b)) appends;
    queries = Array.of_list (Datagen.Workloads.for_dataset built frame);
    schedule;
  }

let request inputs (r : Schedule.request) =
  match r.kind with
  | Schedule.Detect ->
    Protocol.Request.detect ~table ~csv:inputs.detect_payloads.(r.ordinal) ()
  | Schedule.Append -> Protocol.Request.append ~table ~csv:inputs.append_payloads.(r.ordinal)
  | Schedule.Refresh -> Protocol.Request.refresh ~table
  | Schedule.Sql ->
    Protocol.Request.sql ~query:inputs.queries.(r.shape).Datagen.Workloads.sql
      ~guard_table:table ()

let load_request inputs =
  Protocol.Request.load ~table ~csv:inputs.base_csv ~program:inputs.program
    ~model_label:inputs.label ()

let wrong_type = "unexpected reply type"

(* The reply a request expects, or why it counts as failed. *)
let judge (r : Schedule.request) (resp : Protocol.response) =
  match (r.kind, resp) with
  | _, Protocol.Busy_reply -> Error "busy"
  | _, Protocol.Error_reply msg -> Error ("error reply: " ^ msg)
  | Schedule.Detect, Protocol.Detections { flags; _ }
    when Array.length flags = detect_rows -> Ok ()
  | Schedule.Append, Protocol.Ingested { rows; _ } when rows = append_rows -> Ok ()
  | Schedule.Refresh, Protocol.Refreshed _ -> Ok ()
  | Schedule.Sql, Protocol.Sql_result { rows; _ } when rows >= 1 -> Ok ()
  | _, _ -> Error wrong_type

(* ------------------------------------------------------------------ *)
(* Daemon life cycle *)

type daemon = { pid : int; sock : string }

let start_daemon env =
  let sock = Filename.concat env.dir "d.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let pid =
    Proc.spawn ~stderr:(Filename.concat env.dir "daemon.log") env.exe
      [ "serve"; "--socket"; sock; "--pool"; string_of_int pool ]
  in
  { pid; sock }

let connect ?(wait_s = 30.) d =
  let deadline = Proc.now () +. wait_s in
  let rec go () =
    match Service.Client.connect_unix ~timeout_s:60. d.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Proc.now () < deadline ->
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let stop_daemon d client =
  let reply = Service.Client.call client (Protocol.Request.shutdown ()) in
  Service.Client.close client;
  let e = Proc.wait d.pid in
  reply = Protocol.Shutting_down && e.Proc.code = 0

(* Start a daemon and LOAD the table: the set-up a user pays. *)
let setup env inputs =
  let t0 = Proc.now () in
  let d = start_daemon env in
  let client = connect d in
  let reply = Service.Client.call client (load_request inputs) in
  let setup_s = Proc.now () -. t0 in
  let ok =
    match reply with
    | Protocol.Loaded { rows; statements; _ } ->
      rows = inputs.base_rows && statements = inputs.statements
    | _ -> false
  in
  (d, client, setup_s, ok)

(* ------------------------------------------------------------------ *)
(* The open-loop generator *)

type sample = {
  req : Schedule.request;
  latency_s : float;  (* infinity when failed *)
  lag_s : float;      (* how late the send was; nan if never sent *)
  outcome : (Protocol.response, string) result;
}

type conn = {
  fd : Unix.file_descr option ref;  (* None once dropped *)
  buf : Buffer.t;
  outstanding : (Schedule.request * float * float) Queue.t;  (* req, due, sent *)
}

let read_chunk = Bytes.create 65536

(* Complete frames at the head of [buf], removed from it. *)
let take_frames buf =
  let s = Buffer.contents buf in
  let rec go pos acc =
    if String.length s - pos < 4 then (pos, List.rev acc)
    else
      let len = Int32.to_int (String.get_int32_be s pos) in
      if len < 0 || len > Protocol.default_max_frame then
        raise (Protocol.Error "bad frame length")
      else if String.length s - pos - 4 < len then (pos, List.rev acc)
      else go (pos + 4 + len) (String.sub s (pos + 4) len :: acc)
  in
  let pos, frames = go 0 [] in
  Buffer.clear buf;
  Buffer.add_string buf (String.sub s pos (String.length s - pos));
  frames

let close_fd c =
  match !(c.fd) with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let pending_replies c = not (Queue.is_empty c.outstanding)

(* The samples, in completion order, and the number of replies that
   arrived with no request outstanding. *)
let drive inputs (conns : conn array) ~start ~drain_s =
  let samples = ref [] and strays = ref 0 in
  let record req ~due ~sent outcome =
    let now = Proc.now () in
    let latency_s = match outcome with Ok _ -> now -. due | Error _ -> infinity in
    samples := { req; latency_s; lag_s = sent -. due; outcome } :: !samples
  in
  let drop c why =
    close_fd c;
    c.fd := None;
    Queue.iter (fun (req, due, sent) -> record req ~due ~sent (Error why)) c.outstanding;
    Queue.clear c.outstanding
  in
  let on_reply c payload =
    let req, due, sent = Queue.pop c.outstanding in
    match Protocol.decode_response payload with
    | resp -> record req ~due ~sent (Result.map (fun () -> resp) (judge req resp))
    | exception Protocol.Error msg ->
      record req ~due ~sent (Error ("undecodable reply: " ^ msg));
      drop c "connection out of sync"
  in
  let on_frame c f =
    if !(c.fd) = None then ()
    else if pending_replies c then on_reply c f
    else incr strays
  in
  let on_readable c fd =
    match Unix.read fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> drop c "connection closed"
    | n -> (
      Buffer.add_subbytes c.buf read_chunk 0 n;
      match take_frames c.buf with
      | frames -> List.iter (on_frame c) frames
      | exception Protocol.Error msg -> drop c msg)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> drop c (Unix.error_message e)
  in
  let send (r : Schedule.request) =
    let c = conns.(r.conn) in
    let due = start +. r.at in
    match !(c.fd) with
    | None -> record r ~due ~sent:nan (Error "connection dropped")
    | Some fd -> (
      let payload = Protocol.encode_request (request inputs r) in
      let sent = Proc.now () in
      match Protocol.write_frame fd payload with
      | () -> Queue.push (r, due, sent) c.outstanding
      | exception Unix.Unix_error (e, _, _) ->
        record r ~due ~sent (Error (Unix.error_message e));
        drop c "write failed")
  in
  let pending = ref inputs.schedule in
  let last_at = List.fold_left (fun m (r : Schedule.request) -> max m r.at) 0. !pending in
  let deadline = start +. last_at +. drain_s in
  let busy () = !pending <> [] || Array.exists pending_replies conns in
  while busy () && Proc.now () < deadline do
    let rec send_due () =
      match !pending with
      | r :: rest when start +. r.Schedule.at <= Proc.now () ->
        pending := rest;
        send r;
        send_due ()
      | _ -> ()
    in
    send_due ();
    let wait =
      match !pending with
      | r :: _ -> Float.max 0. (start +. r.Schedule.at -. Proc.now ())
      | [] -> Float.min 0.05 (Float.max 0. (deadline -. Proc.now ()))
    in
    let fds = List.filter_map (fun c -> !(c.fd)) (Array.to_list conns) in
    match Unix.select fds [] [] wait with
    | ready, _, _ ->
      Array.iter
        (fun c ->
          match !(c.fd) with
          | Some fd when List.mem fd ready -> on_readable c fd
          | _ -> ())
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter
    (fun (r : Schedule.request) ->
      record r ~due:(start +. r.at) ~sent:nan (Error "never sent"))
    !pending;
  Array.iter (fun c -> if pending_replies c then drop c "reply timed out") conns;
  (List.rev !samples, !strays)

let send_timeout_s = 10.

let open_conn d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX d.sock);
  (* a daemon that stops reading fails the write instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
  { fd = ref (Some fd); buf = Buffer.create 65536; outstanding = Queue.create () }

(* ------------------------------------------------------------------ *)
(* STATS bookkeeping *)

let command_stats client =
  match Service.Client.call client (Protocol.Request.stats ()) with
  | Protocol.Stats_reply { commands; _ } -> commands
  | _ -> failwith "STATS answered with another reply type"

(* (count, errors, total execute seconds) of a command, after minus
   before. *)
let stats_delta before after command =
  let get l =
    match List.find_opt (fun (c : Protocol.command_stat) -> c.command = command) l with
    | Some c -> (c.count, c.errors, float_of_int c.count *. c.mean_ms /. 1e3)
    | None -> (0, 0, 0.)
  in
  let c0, e0, s0 = get before and c1, e1, s1 = get after in
  (c1 - c0, e1 - e0, s1 -. s0)

let table_rows client =
  match Service.Client.call client (Protocol.Request.tables ()) with
  | Protocol.Table_list l -> (
    match List.find_opt (fun (t : Protocol.table_info) -> t.name = table) l with
    | Some t -> t.rows
    | None -> -1)
  | _ -> -1

(* ------------------------------------------------------------------ *)
(* In-process replay of the same request sequence *)

type replay = {
  total_s : float;
  collector : Obs.Collector.t;
  sql_stats : Sqlexec.Exec.stats list;
  refreshes : Registry.refresh_report list;
  counter_delta : (string * float) list;
}

let counter_names =
  [ "vm.cache.hits"; "vm.cache.misses"; "group.cache.hits"; "group.cache.misses" ]

let sql_context reg =
  let ctx = Sqlexec.Exec.create () in
  List.iter
    (fun (name, (e : Registry.entry)) ->
      Sqlexec.Exec.register_table ctx name e.frame;
      Option.iter
        (fun (label, m) -> Sqlexec.Exec.register_model ctx ~target:label m)
        e.model)
    (Registry.list reg);
  (match Registry.find reg table with
   | Some { Registry.program = Some p; _ } -> Sqlexec.Exec.set_guard ctx p.compiled
   | _ -> failwith "replay: table has no program");
  ctx

let sql_reply (r : Sqlexec.Exec.result) =
  let line cells = String.concat "," (List.map Dataframe.Csv.escape_field cells) in
  let row cells = line (Array.to_list (Array.map Dataframe.Value.to_string cells)) in
  Protocol.Sql_result
    {
      columns = r.columns;
      csv = String.concat "\n" (line r.columns :: List.map row r.rows) ^ "\n";
      rows = List.length r.rows;
      violations = r.stats.violations;
      guardrail_ms = 1e3 *. r.stats.guardrail_s;
      inference_ms = 1e3 *. r.stats.inference_s;
    }

let entry reg =
  match Registry.find reg table with
  | Some ({ Registry.program = Some p; _ } as e) -> (e, p)
  | _ -> failwith "replay: table missing"

let count_true flags = Array.fold_left (fun n b -> if b then n + 1 else n) 0 flags

let replay inputs ~traced =
  let span = Obs.Span.with_ in
  let collector = Obs.Collector.create () in
  let sql_stats = ref [] and refreshes = ref [] in
  let body () =
    let reg = Registry.create () in
    let frame = span "dataframe.load" (fun () -> Dataframe.Csv.of_string inputs.base_csv) in
    span "service.load" (fun () ->
        ignore
          (Registry.load reg ~name:table ~program:inputs.program
             ~model_label:inputs.label frame));
    (* probes: components of the calls above, kept out of the layer sum *)
    span "dataframe.parse" (fun () -> ignore (Dataframe.Csv.parse_string inputs.base_csv));
    span "mlmodel.train" (fun () ->
        ignore (Mlmodel.Ensemble.train frame ~label:inputs.label));
    let shadow_of () =
      let e, p = entry reg in
      Service.Ingest.create p.compiled e.frame
    in
    let shadow = ref (shadow_of ()) in
    let parse csv = span "dataframe.payload_parse" (fun () -> Dataframe.Csv.of_string csv) in
    let answer (r : Schedule.request) = function
      | Protocol.Detect { csv = Some csv; _ } ->
        let frame = parse csv in
        let _, p = entry reg in
        span "vm.lower" (fun () -> Guardrail.Validator.prepare p.compiled frame);
        let flags = span "vm.detect" (fun () -> Guardrail.Validator.detect p.compiled frame) in
        Protocol.Detections { flags; violations = count_true flags }
      | Protocol.Append { csv; _ } ->
        let rows = parse csv in
        let e = span "service.append" (fun () -> Registry.append_rows reg ~name:table rows) in
        let _, p = entry reg in
        shadow :=
          span "service.ingest_advance" (fun () ->
              Service.Ingest.advance !shadow p.compiled e.frame);
        Protocol.Ingested
          {
            table;
            rows = Frame.nrows rows;
            total_rows = Frame.nrows e.frame;
            epoch = Frame.Snapshot.epoch e.frame;
          }
      | Protocol.Refresh _ ->
        let _, rep = span "service.refresh" (fun () -> Registry.refresh reg ~name:table) in
        refreshes := rep :: !refreshes;
        shadow := shadow_of ();
        Protocol.Refreshed
          {
            table;
            checked = rep.checked;
            stale = rep.stale;
            refreshed = rep.refreshed;
            dropped = rep.dropped;
          }
      | Protocol.Sql { query; _ } ->
        let ctx = span "service.sql_context" (fun () -> sql_context reg) in
        let name = Printf.sprintf "sqlexec.query_q%d" (r.shape + 1) in
        let res = span name (fun () -> Sqlexec.Exec.run ctx query) in
        sql_stats := res.stats :: !sql_stats;
        sql_reply res
      | _ -> failwith "replay: unexpected request"
    in
    Spans.counting counter_names @@ fun () ->
    List.iter
      (fun (r : Schedule.request) ->
        let req =
          span "service.codec" (fun () ->
              Protocol.decode_request (Protocol.encode_request (request inputs r)))
        in
        let resp = answer r req in
        (match judge r resp with Ok () -> () | Error e -> failwith ("replay: " ^ e));
        span "service.codec" (fun () ->
            ignore (Protocol.decode_response (Protocol.encode_response resp))))
      inputs.schedule
  in
  let t0 = Proc.now () in
  let (), counter_delta =
    if traced then Obs.Trace.with_collector collector body else body ()
  in
  {
    total_s = Proc.now () -. t0;
    collector;
    sql_stats = List.rev !sql_stats;
    refreshes = List.rev !refreshes;
    counter_delta;
  }

(* ------------------------------------------------------------------ *)
(* The measured run against the live daemon *)

type live = {
  samples : sample list;
  strays : int;
  setups : float list;  (* set-up seconds of every daemon started *)
  setup_ok : bool;      (* LOAD replies and SHUTDOWN exits as expected *)
  stats_before : Protocol.command_stat list;
  stats_after : Protocol.command_stat list;
  rows_after : int;     (* TABLES after the run *)
  cpu_s : float;        (* daemon CPU over the run *)
  rss_kb : int;         (* daemon peak RSS at the end of the run *)
}

let live_run env inputs ~trace =
  (* set-up rounds that end in SHUTDOWN, then the one that serves the
     load; all of them are set-up samples *)
  let rounds =
    if trace then []
    else
      Proc.repeat ~min:(Synth.setup_reps - 1) ~budget_s:Synth.setup_budget_s (fun () ->
          let d, client, s, ok = setup env inputs in
          (s, ok && stop_daemon d client))
  in
  let d, control, setup_s, setup_ok = setup env inputs in
  let stats_before = command_stats control in
  let conns = [| open_conn d; open_conn d |] in
  let cpu0 = Proc.cpu_s d.pid in
  let samples, strays = drive inputs conns ~start:(Proc.now () +. 0.05) ~drain_s:30. in
  let cpu_s = Proc.cpu_s d.pid -. cpu0 in
  let rss_kb = Proc.peak_rss_kb d.pid in
  Array.iter close_fd conns;
  let rows_after = table_rows control in
  let stats_after = command_stats control in
  let stopped = stop_daemon d control in
  {
    samples;
    strays;
    setups = setup_s :: List.map fst rounds;
    setup_ok = setup_ok && stopped && List.for_all snd rounds;
    stats_before;
    stats_after;
    rows_after;
    cpu_s;
    rss_kb;
  }

let kinds = [ Schedule.Detect; Schedule.Append; Schedule.Refresh; Schedule.Sql ]

let of_kind k samples = List.filter (fun s -> s.req.Schedule.kind = k) samples

let lat_ms l = List.map (fun s -> 1e3 *. s.latency_s) l

(* Per-layer metrics: the live run's STATS and client view, plus an
   untraced and a traced in-process replay. *)
let layer_metrics env inputs live ~lag_tail =
  let n = List.length live.samples in
  let per_request total = 1e3 *. total /. float_of_int n in
  let untraced = replay inputs ~traced:false in
  let traced = replay inputs ~traced:true in
  let spans = Spans.of_collector traced.collector in
  let dur = Spans.dur spans in
  let per_call = Spans.per_call spans in
  let counter name = List.assoc name traced.counter_delta in
  let sqls = traced.sql_stats in
  let per_sql name total =
    Report.metric ~samples:(List.length sqls) name "ms"
      (1e3 *. total /. float_of_int (max 1 (List.length sqls)))
  in
  let sql_sum f = Stats.sum (List.map f sqls) in
  let guard_s = sql_sum (fun s -> s.Sqlexec.Exec.guardrail_s) in
  let infer_s = sql_sum (fun s -> s.Sqlexec.Exec.inference_s) in
  let scanned = sql_sum (fun s -> float_of_int s.Sqlexec.Exec.rows_scanned) in
  let predicted = sql_sum (fun s -> float_of_int s.Sqlexec.Exec.rows_predicted) in
  let queries =
    List.init Schedule.shapes (fun k -> Printf.sprintf "sqlexec.query_q%d" (k + 1))
  in
  let query_s = Stats.sum (List.map dur queries) in
  let request_layers =
    [
      "service.codec"; "dataframe.payload_parse"; "vm.lower"; "vm.detect";
      "service.append"; "service.refresh"; "service.sql_context";
    ]
    @ queries
  in
  let layer_sum = Stats.sum (List.map dur request_layers) in
  let client_total =
    Stats.sum
      (List.filter_map
         (fun s -> if Result.is_ok s.outcome then Some s.latency_s else None)
         live.samples)
  in
  let exec k = stats_delta live.stats_before live.stats_after (Schedule.kind_name k) in
  let exec_ms k =
    let c, _, s = exec k in
    Report.metric ~samples:c
      (Printf.sprintf "service.execute_%s_ms" (String.lowercase_ascii (Schedule.kind_name k)))
      "ms"
      (if c > 0 then 1e3 *. s /. float_of_int c else 0.)
  in
  let server_total = Stats.sum (List.map (fun k -> let _, _, s = exec k in s) kinds) in
  (* client latency the replayed layers' busy time and the measured
     queueing leave unexplained: what running beside other requests in
     the live daemon adds to each call, and its socket I/O *)
  let wait_total = client_total -. server_total in
  let unattributed = client_total -. layer_sum -. wait_total in
  let refreshed f = float_of_int (List.fold_left (fun a r -> a + f r) 0 traced.refreshes) in
  Proc.write_file (Filename.concat env.dir "trace.json")
    (Obs.Trace.to_chrome_json traced.collector);
  Report.complete ~declared:Report.per_layer
    ([
       Report.metric "dataframe.load_s" "s" (dur "dataframe.load");
       Report.metric "dataframe.parse_s" "s" (dur "dataframe.parse");
       Report.metric "dataframe.load_alloc_mb" "MB" (Spans.alloc_mb spans "dataframe.load");
       per_call ~metric:"dataframe.payload_parse_ms" "dataframe.payload_parse";
       Report.metric "dataframe.group_cache_hit_rate" "ratio"
         (Spans.share (counter "group.cache.hits") (counter "group.cache.misses"));
       per_call ~metric:"vm.lower_ms" "vm.lower";
       per_call ~metric:"vm.detect_ms" "vm.detect";
       Report.metric "vm.cache_hit_rate" "ratio"
         (Spans.share (counter "vm.cache.hits") (counter "vm.cache.misses"));
       per_sql "vm.guard_ms" guard_s;
       per_sql "mlmodel.inference_ms" infer_s;
       Report.metric "mlmodel.predicted_per_scanned" "ratio"
         (if scanned > 0. then predicted /. scanned else 0.);
       Report.metric "mlmodel.train_s" "s" (dur "mlmodel.train");
       per_sql "sqlexec.residual_ms" (query_s -. guard_s -. infer_s);
       Report.metric ~samples:n "service.codec_ms" "ms" (per_request (dur "service.codec"));
       Report.metric ~samples:n "service.wait_ms" "ms" (per_request wait_total);
       per_call ~metric:"service.append_ms" "service.append";
       per_call ~metric:"service.ingest_advance_ms" "service.ingest_advance";
       per_call ~metric:"service.refresh_ms" "service.refresh";
       Report.metric "service.refreshed_stmts" "count" (refreshed (fun r -> r.Registry.refreshed));
       Report.metric "service.stale_keys" "count"
         (refreshed (fun r -> List.length r.Registry.stale));
       Report.metric "service.load_s" "s" (dur "service.load");
       Report.metric ~samples:n "bench.gen_lag_ms" "ms" lag_tail;
       Report.metric "unattributed_s" "s" unattributed;
       Report.metric "unattributed_share" "ratio" (unattributed /. client_total);
       Report.metric "trace_overhead" "ratio" (traced.total_s /. untraced.total_s);
     ]
    @ List.map (fun q -> per_call ~metric:(q ^ "_ms") q) queries
    @ List.map exec_ms kinds)

let run env ~trace =
  let inputs = make_inputs env in
  let live = live_run env inputs ~trace in
  let samples = live.samples in
  let n = List.length samples in
  let failures = List.filter (fun s -> Result.is_error s.outcome) samples in
  let failed = List.length failures in
  let sum_ok f = List.fold_left (fun a s -> match s.outcome with Ok r -> a + f r | _ -> a) 0 in
  let acked_rows =
    sum_ok (function Protocol.Ingested { rows; _ } -> rows | _ -> 0) samples
  in
  let refreshed =
    sum_ok (function Protocol.Refreshed { refreshed; _ } -> refreshed | _ -> 0) samples
  in
  let error_reply s =
    match s.outcome with
    | Error e -> String.starts_with ~prefix:"error reply" e
    | Ok _ -> false
  in
  let stats_ok =
    List.for_all
      (fun k ->
        let count, errors, _ =
          stats_delta live.stats_before live.stats_after (Schedule.kind_name k)
        in
        let of_k = of_kind k samples in
        let sent = List.filter (fun s -> not (Float.is_nan s.lag_s)) of_k in
        count = List.length sent && errors = List.length (List.filter error_reply of_k))
      kinds
  in
  let types_ok = List.for_all (fun s -> s.outcome <> Error wrong_type) samples in
  let rows_ok = live.rows_after = inputs.base_rows + acked_rows in
  let refresh_ok = refreshed >= 1 || not (refresh_expected inputs.schedule) in
  let correct =
    types_ok && live.strays = 0 && live.setup_ok && stats_ok && rows_ok && refresh_ok
  in
  let lags =
    List.filter_map
      (fun s -> if Float.is_nan s.lag_s then None else Some (1e3 *. s.lag_s))
      samples
  in
  let lag_p, lag_tail = if lags = [] then (0.5, 0.) else Stats.tail lags in
  let lag_max = List.fold_left Float.max 0. lags in
  let pct name l p =
    let n = List.length l in
    match if n = 0 then None else Stats.reportable l p with
    | Some v -> Printf.sprintf "%s %.3f ms (n=%d)" name v n
    | None ->
      Printf.sprintf "%s unreported: n=%d leaves fewer than %d samples beyond it" name n
        Stats.min_beyond
  in
  let detect = of_kind Schedule.Detect samples in
  let sql shapes =
    List.filter (fun s -> List.mem s.req.Schedule.shape shapes) (of_kind Schedule.Sql samples)
  in
  let failure s =
    Printf.sprintf "FAILED %s: %s" (Schedule.kind_name s.req.Schedule.kind)
      (match s.outcome with Error e -> e | Ok _ -> "")
  in
  let notes =
    List.concat
      [
        List.map failure failures;
        Report.fail_note "every reply has its request's type" types_ok;
        Report.fail_note "LOAD replies and daemon shutdowns" live.setup_ok;
        Report.fail_note "STATS counts equal requests sent and errors seen" stats_ok;
        Report.fail_note "TABLES rows equal base plus acked APPEND rows" rows_ok;
        Report.fail_note "some REFRESH re-filled a statement" refresh_ok;
        Report.fail_note "every reply answers a request" (live.strays = 0);
        (if lag_max > behind_ms then
           [
             Printf.sprintf
               "GENERATOR BEHIND: a send ran %.1f ms late; latencies include that lateness"
               lag_max;
           ]
         else []);
        [
          Printf.sprintf
            "program: %d statements; %d requests over %.0f s; %d rows appended; %d \
             statements re-filled"
            inputs.statements n env.seconds acked_rows refreshed;
          pct "detect_p50_ms" (lat_ms detect) 0.5;
          pct "detect_p95_ms" (lat_ms detect) 0.95;
          pct "append_p50_ms" (lat_ms (of_kind Schedule.Append samples)) 0.5;
          pct "refresh_p50_ms" (lat_ms (of_kind Schedule.Refresh samples)) 0.5;
          pct "sql_filter_p50_ms" (lat_ms (sql [ 1; 3 ])) 0.5;
          pct "sql_groupby_p50_ms" (lat_ms (sql [ 0; 2 ])) 0.5;
          Printf.sprintf "error_rate %.4f (%d/%d requests failed)"
            (float_of_int failed /. float_of_int n) failed n;
          Printf.sprintf "generator lag: p%.0f %.3f ms, max %.3f ms (n=%d)" (100. *. lag_p)
            lag_tail lag_max (List.length lags);
        ];
      ]
  in
  let metrics =
    if trace then layer_metrics env inputs live ~lag_tail
    else
      Report.complete ~declared:Report.end_to_end
        [
          Report.metric ~samples:(List.length live.setups) "setup_s" "s"
            (Stats.median live.setups);
          Report.metric ~samples:(List.length detect) "op_p50_ms" "ms"
            (Stats.median (lat_ms detect));
          Report.metric ~samples:n "cpu_ms_per_op" "ms" (1e3 *. live.cpu_s /. float_of_int n);
          Report.metric "peak_rss_mb" "MB" (float_of_int live.rss_kb /. 1024.);
        ]
  in
  { Report.result = { Report.correct; attempted = n; failed; metrics }; notes }
