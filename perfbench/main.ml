(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from the root of a guardrail checkout (the CLI must
   already be built at _build/default/bin/guardrail_cli.exe; run.sh
   builds both). Prints a human-readable report, then as its last line
   one JSON object: correctness, operations attempted and failed, and
   the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). Exits 1 when an output check fails (failed operations
   are counted in the result, not in the exit code), 2 on a usage or
   environment error. *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " Perfbench.Report.workloads );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> die "unexpected argument %S (usage: %s)" a usage)
    usage;
  if not (List.mem !workload Perfbench.Report.workloads) then
    die "unknown workload %S" !workload;
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let exe =
    String.concat Filename.dir_sep [ "_build"; "default"; "bin"; "guardrail_cli.exe" ]
  in
  if not (Sys.file_exists exe) then die "%s not built" exe;
  let dir =
    Filename.concat ".bench_build" (Printf.sprintf "perfbench-%d" (Unix.getpid ()))
  in
  Perfbench.Proc.mkdir_p dir;
  (* every exit, including one on a signal, stops the children and
     removes the scratch files *)
  at_exit (fun () ->
      Perfbench.Proc.reap_all ();
      Perfbench.Proc.remove_tree dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  (* a write to a daemon that went away must fail the request, not end
     the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let seconds = float_of_int !seconds in
  let env = { Perfbench.Synth.exe; dir; seed = !seed; seconds } in
  let run () =
    let synth = Perfbench.Synth.[ tall; wide ] in
    match List.find_opt (fun s -> s.Perfbench.Synth.name = !workload) synth with
    | Some spec -> Perfbench.Synth.run env spec ~trace
    | None -> Perfbench.Serve.run env ~trace
  in
  let outcome =
    try run ()
    with e ->
      prerr_endline ("perfbench: run failed: " ^ Printexc.to_string e);
      exit 1
  in
  let { Perfbench.Report.result; notes } = outcome in
  Printf.printf "workload %s, seed %d, %.0f s, trace %b\n" !workload !seed seconds trace;
  List.iter (fun l -> print_endline ("  " ^ l)) notes;
  List.iter (Perfbench.Report.pp_metric stdout) result.Perfbench.Report.metrics;
  print_endline (Obs.Json.to_string (Perfbench.Report.to_json result));
  exit (if result.Perfbench.Report.correct then 0 else 1)
