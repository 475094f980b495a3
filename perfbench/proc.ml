(* Child processes, clocks and /proc readings.

   Every child the benchmark starts is tracked until it is reaped, and
   [reap_all] (installed with [at_exit] by [Main]) kills and waits
   for any still alive, so no run leaves a process behind. *)

external wait4 : int -> int * float * float * int = "perfbench_wait4"
external clk_tck : unit -> int = "perfbench_clk_tck"

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [f ()] at least [min] times, and again while less than [budget_s]
   has passed, at most 15 times; results in call order. *)
let repeat ~min ~budget_s f =
  let max = 15 in
  let t0 = now () in
  let rec go acc n =
    if n >= max || (n >= min && now () -. t0 >= budget_s) then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let live : int list ref = ref []

type exit = {
  code : int;      (* exit code, or minus the signal that ended it *)
  cpu_s : float;   (* user + system CPU seconds *)
  peak_rss_kb : int;
}

let open_out_fd = function
  | None -> Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0
  | Some path ->
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* Start [prog args] with stdin and stdout on /dev/null and stderr to
   [stderr] (or /dev/null). *)
let spawn ?stderr prog args =
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = open_out_fd None in
  let err = open_out_fd stderr in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ inp; out; err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) inp out err)
  in
  live := pid :: !live;
  pid

let wait pid =
  let code, user, sys, rss = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  { code; cpu_s = user +. sys; peak_rss_kb = rss }

(* Run to completion; also returns the wall time from spawn to reap. *)
let run ?stderr prog args =
  let t0 = now () in
  let pid = spawn ?stderr prog args in
  let e = wait pid in
  (e, now () -. t0)

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap_all () =
  List.iter
    (fun pid ->
      kill pid;
      try ignore (wait pid) with Failure _ -> ())
    !live;
  live := []

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* User + system CPU seconds a live process has used so far. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* utime and stime are fields 14 and 15; count from the end of the
     parenthesised command name, which may hold spaces *)
  let after = String.rindex stat ')' + 2 in
  let rest = String.sub stat after (String.length stat - after) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  let ticks i = float_of_string fields.(i - 3) in
  (ticks 14 +. ticks 15) /. float_of_int (clk_tck ())

(* Peak resident set size (VmHWM) of a live process, in KiB. *)
let peak_rss_kb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
