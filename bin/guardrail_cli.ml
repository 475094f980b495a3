(* Command-line interface to the GUARDRAIL library.

     guardrail synthesize data.csv -o constraints.grl
     guardrail detect    data.csv -c constraints.grl
     guardrail rectify   data.csv -c constraints.grl -o repaired.csv
     guardrail sql       data.csv -c constraints.grl --table t
     guardrail datasets
     guardrail serve     --socket /tmp/guardrail.sock --preload t=data.csv:c.grl
     guardrail request   detect --socket /tmp/guardrail.sock --table t
*)

module Frame = Dataframe.Frame

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let load_constraints frame path =
  Guardrail.Parse.prog (Frame.schema frame) (read_file path)

(* ------------------------------------------------------------------ *)
(* synthesize *)

let synthesize csv_path output epsilon alpha identity_sampler jobs trace quiet =
  let config =
    Guardrail.Config.make ~epsilon ~alpha
      ~sampler:
        (if identity_sampler then Guardrail.Config.Identity
         else Guardrail.Config.Auxiliary)
      ?jobs ()
  in
  let run () =
    let frame = Obs.Span.with_ "load" (fun () -> Dataframe.Csv.load csv_path) in
    Guardrail.Synthesize.run ~config frame
  in
  let result =
    match trace with
    | None -> run ()
    | Some trace_path ->
      (* install a collector for the load and the run, then export it as
         Chrome trace-event JSON (open in about:tracing / Perfetto) *)
      let collector = Obs.Collector.create () in
      let result = Obs.Trace.with_collector collector run in
      write_file trace_path (Obs.Trace.to_chrome_json collector);
      if not quiet then
        Printf.eprintf "trace: %d span(s) written to %s\n%s"
          (Obs.Collector.length collector)
          trace_path
          (Obs.Trace.summary collector);
      result
  in
  let text = Guardrail.Pretty.prog_to_string result.Guardrail.Synthesize.program in
  (match output with
   | Some path -> write_file path (text ^ "\n")
   | None -> print_endline text);
  if not quiet then
    Printf.eprintf
      "synthesized %d statements (coverage %.3f, %d DAGs in MEC%s, %.2fs)\n"
      (Guardrail.Dsl.stmt_count result.Guardrail.Synthesize.program)
      result.Guardrail.Synthesize.coverage
      result.Guardrail.Synthesize.dag_count
      (if result.Guardrail.Synthesize.truncated then ", truncated" else "")
      (Guardrail.Synthesize.total_time result.Guardrail.Synthesize.timing);
  if (not quiet) && result.Guardrail.Synthesize.timing.Guardrail.Synthesize.jobs > 1
  then
    Printf.eprintf "parallel: %d jobs, struct speedup %.2fx, fill speedup %.2fx\n"
      result.Guardrail.Synthesize.timing.Guardrail.Synthesize.jobs
      (Guardrail.Synthesize.structure_speedup
         result.Guardrail.Synthesize.timing)
      (Guardrail.Synthesize.fill_speedup result.Guardrail.Synthesize.timing);
  0

(* ------------------------------------------------------------------ *)
(* detect *)

let detect csv_path constraints_path =
  let frame = Dataframe.Csv.load csv_path in
  let program =
    Guardrail.Validator.compile (load_constraints frame constraints_path)
  in
  let violations = Guardrail.Validator.violations program frame in
  List.iter
    (fun v ->
      print_endline (Guardrail.Validator.describe (Frame.schema frame) v))
    violations;
  Printf.eprintf "%d violation(s) in %d rows\n" (List.length violations)
    (Frame.nrows frame);
  if violations = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* rectify *)

let rectify csv_path constraints_path output strategy_name =
  let frame = Dataframe.Csv.load csv_path in
  let program = load_constraints frame constraints_path in
  match Guardrail.Validator.strategy_of_string strategy_name with
  | None ->
    Printf.eprintf "unknown strategy %S (raise|ignore|coerce|rectify)\n"
      strategy_name;
    2
  | Some strategy ->
    let repaired, violations =
      Guardrail.Validator.handle ~strategy
        (Guardrail.Validator.compile program)
        frame
    in
    let text = Dataframe.Csv.to_string repaired in
    (match output with
     | Some path -> write_file path text
     | None -> print_string text);
    Printf.eprintf "%d violation(s) handled with %s\n" (List.length violations)
      strategy_name;
    0

(* ------------------------------------------------------------------ *)
(* inspect *)

let inspect csv_path constraints_path epsilon =
  let frame = Dataframe.Csv.load csv_path in
  let program = load_constraints frame constraints_path in
  let report = Guardrail.Report.of_program ~epsilon program frame in
  Fmt.pr "%a@." Guardrail.Report.pp report;
  if
    List.for_all
      (fun r -> r.Guardrail.Report.epsilon_valid)
      report.Guardrail.Report.statements
  then 0
  else 1

(* ------------------------------------------------------------------ *)
(* sql *)

let sql csv_path constraints_path table =
  let frame = Dataframe.Csv.load csv_path in
  let program = load_constraints frame constraints_path in
  print_endline "-- violation queries";
  List.iter print_endline
    (Guardrail.Sql_export.prog_violation_queries ~table program);
  print_endline "-- rectification updates";
  List.iter print_endline
    (Guardrail.Sql_export.prog_rectify_updates ~table program);
  0

(* ------------------------------------------------------------------ *)
(* datasets *)

let datasets () =
  List.iter (fun spec -> Fmt.pr "%a@." Datagen.Spec.pp spec) Datagen.Spec.all;
  0

(* generate one of the evaluation datasets to CSV *)
let generate id n_rows output =
  let spec = Datagen.Spec.by_id id in
  let _, frame =
    match n_rows with
    | Some n -> Datagen.Generate.dataset ~n_rows:n spec
    | None -> Datagen.Generate.dataset spec
  in
  let text = Dataframe.Csv.to_string frame in
  (match output with
   | Some path -> write_file path text
   | None -> print_string text);
  Printf.eprintf "generated %s: %d rows\n" spec.Datagen.Spec.name
    (Frame.nrows frame);
  0

(* ------------------------------------------------------------------ *)
(* serve *)

(* "name=data.csv" or "name=data.csv:constraints.grl" *)
let parse_preload spec =
  match String.index_opt spec '=' with
  | None ->
    failwith
      (Printf.sprintf "bad --preload %S (expected NAME=CSV[:GRL])" spec)
  | Some eq ->
    let name = String.sub spec 0 eq in
    let rest = String.sub spec (eq + 1) (String.length spec - eq - 1) in
    (match String.index_opt rest ':' with
     | None -> (name, rest, None)
     | Some colon ->
       ( name,
         String.sub rest 0 colon,
         Some (String.sub rest (colon + 1) (String.length rest - colon - 1)) ))

let sockaddr_of socket host port =
  match (socket, port) with
  | Some path, _ -> Unix.ADDR_UNIX path
  | None, Some p -> Unix.ADDR_INET (Unix.inet_addr_of_string host, p)
  | None, None -> failwith "pass --socket PATH or --port PORT"

let serve socket host port pool timeout max_connections max_inflight shards
    preloads =
  try
    let config =
      Service.Server.Config.make ~pool_size:pool ~read_timeout_s:timeout
        ~max_connections ~max_inflight ~shards ()
    in
    let registry =
      Service.Registry.create ~shards:config.Service.Server.Config.shards ()
    in
    List.iter
      (fun spec ->
        let name, csv_path, grl_path = parse_preload spec in
        let frame = Dataframe.Csv.load csv_path in
        let program = Option.map read_file grl_path in
        let entry = Service.Registry.load registry ~name ?program frame in
        Printf.eprintf "preloaded %S: %d rows%s\n%!" name
          (Frame.nrows frame)
          (match entry.Service.Registry.program with
           | Some p ->
             Printf.sprintf ", %d statement(s)"
               (Guardrail.Dsl.stmt_count p.Service.Registry.prog)
           | None -> ""))
      preloads;
    let server = Service.Server.create ~config registry in
    let addr = Service.Server.bind server (sockaddr_of socket host port) in
    (* SIGINT/SIGTERM drain in-flight requests, then run returns *)
    let stop _ = Service.Server.stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (match addr with
     | Unix.ADDR_UNIX path ->
       Printf.eprintf "guardrail daemon listening on %s (pool %d)\n%!" path pool
     | Unix.ADDR_INET (host, port) ->
       Printf.eprintf "guardrail daemon listening on %s:%d (pool %d)\n%!"
         (Unix.string_of_inet_addr host)
         port pool);
    Service.Server.run server;
    Printf.eprintf "guardrail daemon drained, exiting\n%!";
    0
  with
  | Failure msg | Sys_error msg ->
    Printf.eprintf "serve: %s\n" msg;
    2
  | Unix.Unix_error (err, fn, _) ->
    Printf.eprintf "serve: %s: %s\n" fn (Unix.error_message err);
    2
  | Invalid_argument msg ->
    Printf.eprintf "serve: %s\n" msg;
    2

(* ------------------------------------------------------------------ *)
(* request *)

let print_flags flags =
  Array.iteri (fun i v -> if v then Printf.printf "row %d: violation\n" i) flags

(* "--set ROW:COLUMN=VALUE" -> (row, column, value) *)
let parse_cell spec =
  match String.index_opt spec ':' with
  | None -> failwith (Printf.sprintf "bad --set %S (want ROW:COLUMN=VALUE)" spec)
  | Some colon ->
    let row =
      match int_of_string_opt (String.sub spec 0 colon) with
      | Some r -> r
      | None -> failwith (Printf.sprintf "bad --set row in %S" spec)
    in
    let rest = String.sub spec (colon + 1) (String.length spec - colon - 1) in
    (match String.index_opt rest '=' with
     | None ->
       failwith (Printf.sprintf "bad --set %S (want ROW:COLUMN=VALUE)" spec)
     | Some eq ->
       ( row,
         String.sub rest 0 eq,
         String.sub rest (eq + 1) (String.length rest - eq - 1) ))

let do_request client command table data constraints label strategy_name query
    guard_table sets output =
  let module P = Service.Protocol in
  let required what = function
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s is required for this command" what)
  in
  match command with
  | "ping" ->
    (match Service.Client.call_exn client (P.Request.ping ()) with
     | P.Ok_reply msg -> print_endline msg; 0
     | _ -> failwith "unexpected reply")
  | "load" ->
    let csv = read_file (required "--data" data) in
    let program = Option.map read_file constraints in
    (match
       Service.Client.call_exn client
         (P.Request.load ~table:(required "--table" table) ~csv ?program
            ?model_label:label ())
     with
     | P.Loaded { table; rows; statements } ->
       Printf.eprintf "loaded %S: %d rows, %d statement(s)\n" table rows
         statements;
       0
     | _ -> failwith "unexpected reply")
  | "guard" ->
    let program = read_file (required "--constraints" constraints) in
    (match
       Service.Client.call_exn client
         (P.Request.guard ~table:(required "--table" table) ~program)
     with
     | P.Ok_reply msg -> Printf.eprintf "%s\n" msg; 0
     | _ -> failwith "unexpected reply")
  | "detect" ->
    let csv = Option.map read_file data in
    (match
       Service.Client.call_exn client
         (P.Request.detect ~table:(required "--table" table) ?csv ())
     with
     | P.Detections { flags; violations } ->
       print_flags flags;
       Printf.eprintf "%d violating row(s) in %d\n" violations
         (Array.length flags);
       if violations = 0 then 0 else 1
     | _ -> failwith "unexpected reply")
  | "rectify" ->
    let strategy =
      match Guardrail.Validator.strategy_of_string strategy_name with
      | Some s -> s
      | None ->
        failwith
          (Printf.sprintf "unknown strategy %S (raise|ignore|coerce|rectify)"
             strategy_name)
    in
    let csv = Option.map read_file data in
    (match
       Service.Client.call_exn client
         (P.Request.rectify ~table:(required "--table" table) ~strategy ?csv ())
     with
     | P.Rectified { csv; violations } ->
       (match output with
        | Some path -> write_file path csv
        | None -> print_string csv);
       Printf.eprintf "%d violation(s) handled\n" violations;
       0
     | _ -> failwith "unexpected reply")
  | "sql" ->
    (match
       Service.Client.call_exn client
         (P.Request.sql ~query:(required "--query" query) ?guard_table ())
     with
     | P.Sql_result { csv; rows; violations; guardrail_ms; inference_ms; _ } ->
       print_string csv;
       Printf.eprintf
         "%d row(s), %d violation(s) rectified, guardrail %.2fms, inference %.2fms\n"
         rows violations guardrail_ms inference_ms;
       0
     | _ -> failwith "unexpected reply")
  | "append" ->
    let csv = read_file (required "--data" data) in
    (match
       Service.Client.call_exn client
         (P.Request.append ~table:(required "--table" table) ~csv)
     with
     | P.Ingested { table; rows; total_rows; epoch } ->
       Printf.eprintf "appended %d row(s) to %S: %d total, epoch %d\n" rows
         table total_rows epoch;
       0
     | _ -> failwith "unexpected reply")
  | "update" ->
    let cells =
      match sets with
      | [] -> failwith "--set ROW:COLUMN=VALUE is required for update"
      | specs -> List.map parse_cell specs
    in
    (match
       Service.Client.call_exn client
         (P.Request.update ~table:(required "--table" table) ~cells)
     with
     | P.Ingested { table; total_rows; epoch; _ } ->
       Printf.eprintf "updated %d cell(s) in %S: %d rows, epoch %d\n"
         (List.length cells) table total_rows epoch;
       0
     | _ -> failwith "unexpected reply")
  | "refresh" ->
    (match
       Service.Client.call_exn client
         (P.Request.refresh ~table:(required "--table" table))
     with
     | P.Refreshed { table; checked; stale; refreshed; dropped } ->
       List.iter (fun k -> Printf.eprintf "stale: %s\n" k) stale;
       Printf.eprintf
         "refreshed %S: %d statement(s) checked, %d stale, %d re-filled, \
          %d dropped\n"
         table checked (List.length stale) refreshed dropped;
       if dropped = 0 then 0 else 1
     | _ -> failwith "unexpected reply")
  | "tables" ->
    (match Service.Client.call_exn client (P.Request.tables ()) with
     | P.Table_list infos ->
       List.iter
         (fun (i : P.table_info) ->
           Printf.printf "%-20s %7d rows, %3d cols%s%s\n" i.P.name i.P.rows
             i.P.columns
             (if i.P.has_program then ", program" else "")
             (if i.P.has_model then ", model" else ""))
         infos;
       0
     | _ -> failwith "unexpected reply")
  | "stats" ->
    (match Service.Client.call_exn client (P.Request.stats ()) with
     | P.Stats_reply { rendered; _ } -> print_string rendered; 0
     | _ -> failwith "unexpected reply")
  | "shutdown" ->
    (match Service.Client.call_exn client (P.Request.shutdown ()) with
     | P.Shutting_down -> Printf.eprintf "daemon shutting down\n"; 0
     | _ -> failwith "unexpected reply")
  | "trace-start" ->
    (match Service.Client.call_exn client (P.Request.trace ~enable:true) with
     | P.Ok_reply msg -> Printf.eprintf "%s\n" msg; 0
     | _ -> failwith "unexpected reply")
  | "trace-stop" ->
    (match Service.Client.call_exn client (P.Request.trace ~enable:false) with
     | P.Ok_reply json ->
       (match output with
        | Some path -> write_file path json
        | None -> print_string json);
       0
     | _ -> failwith "unexpected reply")
  | other ->
    failwith
      (Printf.sprintf
         "unknown command %S \
          (ping|load|guard|detect|rectify|sql|append|update|refresh|tables|\
          stats|trace-start|trace-stop|shutdown)"
         other)

let request command socket host port table data constraints label strategy
    query guard_table sets output =
  try
    let addr = sockaddr_of socket host port in
    Service.Client.with_connection addr (fun client ->
        do_request client command table data constraints label strategy query
          guard_table sets output)
  with
  | Failure msg | Sys_error msg | Service.Client.Server_error msg ->
    Printf.eprintf "request: %s\n" msg;
    2
  | Service.Protocol.Error msg ->
    Printf.eprintf "request: protocol error: %s\n" msg;
    2
  | Unix.Unix_error (err, fn, _) ->
    Printf.eprintf "request: %s: %s\n" fn (Unix.error_message err);
    2

(* ------------------------------------------------------------------ *)
(* command definitions *)

open Cmdliner

let csv_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DATA.csv" ~doc:"Input CSV file.")

let constraints_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "c"; "constraints" ] ~docv:"FILE" ~doc:"Constraint program file.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if omitted).")

let synthesize_cmd =
  let epsilon =
    Arg.(
      value & opt float 0.05
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:"Noise tolerance for branch validity (paper recommends 0.01-0.05).")
  in
  let alpha =
    Arg.(
      value & opt float 0.01
      & info [ "alpha" ] ~docv:"ALPHA" ~doc:"CI-test significance level.")
  in
  let identity =
    Arg.(
      value & flag
      & info [ "identity-sampler" ]
          ~doc:"Learn on raw codes instead of the auxiliary distribution (ablation).")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for the synthesis pipeline (defaults to \
                \\$GUARDRAIL_JOBS, else 1). The result is identical at \
                every job count.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace-event JSON profile of the run to \
                \\$(docv) (load it in about:tracing or ui.perfetto.dev).")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the summary.") in
  Cmd.v
    (Cmd.info "synthesize" ~doc:"Synthesize integrity constraints from a CSV dataset.")
    Term.(
      const synthesize $ csv_arg $ output_arg $ epsilon $ alpha $ identity
      $ jobs $ trace $ quiet)

let detect_cmd =
  Cmd.v
    (Cmd.info "detect" ~doc:"Report rows violating a constraint program.")
    Term.(const detect $ csv_arg $ constraints_arg)

let rectify_cmd =
  let strategy =
    Arg.(
      value & opt string "rectify"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Error handling: raise, ignore, coerce or rectify.")
  in
  Cmd.v
    (Cmd.info "rectify" ~doc:"Apply an error-handling strategy and emit the repaired CSV.")
    Term.(const rectify $ csv_arg $ constraints_arg $ output_arg $ strategy)

let inspect_cmd =
  let epsilon =
    Arg.(
      value & opt float 0.05
      & info [ "epsilon" ] ~docv:"EPS" ~doc:"Validity threshold for the report.")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Report per-statement coverage, loss and validity of a constraint \
             program against a dataset.")
    Term.(const inspect $ csv_arg $ constraints_arg $ epsilon)

let sql_cmd =
  let table =
    Arg.(
      value & opt string "data"
      & info [ "table" ] ~docv:"NAME" ~doc:"Table name used in the generated SQL.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Export the constraints as SQL queries and updates.")
    Term.(const sql $ csv_arg $ constraints_arg $ table)

let datasets_cmd =
  Cmd.v
    (Cmd.info "datasets" ~doc:"List the 12 built-in evaluation datasets.")
    Term.(const datasets $ const ())

let generate_cmd =
  let id =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Dataset id (1-12).")
  in
  let n_rows =
    Arg.(
      value & opt (some int) None
      & info [ "rows" ] ~docv:"N" ~doc:"Row count override.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate one of the evaluation datasets as CSV.")
    Term.(const generate $ id $ n_rows $ output_arg)

(* shared connection flags for serve/request *)
let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (alternative to $(b,--socket)).")

let serve_cmd =
  let pool =
    Arg.(
      value & opt int 4
      & info [ "pool" ] ~docv:"N" ~doc:"Worker domains serving connections.")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:"Idle-connection read timeout (0 disables).")
  in
  let max_connections =
    Arg.(
      value & opt int 1024
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Concurrent connections multiplexed by the event loop; \
                excess waits in the listen backlog.")
  in
  let max_inflight =
    Arg.(
      value & opt int 32
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admitted in-flight requests per connection; excess is \
                answered with BUSY (load shedding).")
  in
  let shards =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"N"
          ~doc:"Independently locked table-registry partitions.")
  in
  let preload =
    Arg.(
      value & opt_all string []
      & info [ "preload" ] ~docv:"NAME=CSV[:GRL]"
          ~doc:"Register a table (and optionally its constraint program) \
                at startup. Repeatable.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the guardrail daemon: load datasets and constraint \
             programs once, then answer DETECT/RECTIFY/SQL requests \
             concurrently until SIGINT or a SHUTDOWN request.")
    Term.(
      const serve $ socket_arg $ host_arg $ port_arg $ pool $ timeout
      $ max_connections $ max_inflight $ shards $ preload)

let request_cmd =
  let command =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"COMMAND"
          ~doc:"One of ping, load, guard, detect, rectify, sql, append, \
                update, refresh, tables, stats, trace-start, trace-stop, \
                shutdown.")
  in
  let table =
    Arg.(
      value
      & opt (some string) None
      & info [ "table" ] ~docv:"NAME" ~doc:"Target table.")
  in
  let data =
    Arg.(
      value
      & opt (some file) None
      & info [ "data" ] ~docv:"FILE"
          ~doc:"CSV file: the dataset for load, or rows to check for \
                detect/rectify (registered frame if omitted).")
  in
  let constraints =
    Arg.(
      value
      & opt (some file) None
      & info [ "c"; "constraints" ] ~docv:"FILE" ~doc:"Constraint program file.")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"COLUMN"
          ~doc:"Train a prediction model on this column at load time.")
  in
  let strategy =
    Arg.(
      value & opt string "rectify"
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Error handling: raise, ignore, coerce or rectify.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"SQL" ~doc:"Query text for the sql command.")
  in
  let guard_table =
    Arg.(
      value
      & opt (some string) None
      & info [ "guard-table" ] ~docv:"NAME"
          ~doc:"Guard PREDICT rows with this table's constraint program.")
  in
  let sets =
    Arg.(
      value
      & opt_all string []
      & info [ "set" ] ~docv:"ROW:COLUMN=VALUE"
          ~doc:"Cell edit for the update command; repeatable.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running guardrail daemon.")
    Term.(
      const request $ command $ socket_arg $ host_arg $ port_arg $ table
      $ data $ constraints $ label $ strategy $ query $ guard_table $ sets
      $ output_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "guardrail" ~version:"1.0.0"
       ~doc:"Automated integrity constraint synthesis from noisy data.")
    [ synthesize_cmd; detect_cmd; rectify_cmd; inspect_cmd; sql_cmd;
      datasets_cmd; generate_cmd; serve_cmd; request_cmd ]

let () = exit (Cmd.eval' main_cmd)
