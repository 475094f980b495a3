(* The guardrail serving daemon: an event-driven readiness loop feeding
   a Domain worker pool.

   One loop multiplexes every connection over [Unix.select] readiness:
   sockets are non-blocking, each connection carries an incremental
   read buffer (length-prefixed frames are assembled across arbitrary
   chunk boundaries) and a write queue of encoded reply frames. Decoded
   requests are posted to the pool; a self-pipe wakes the loop when a
   worker finishes (and when [stop] is called), so the loop sleeps in
   [select] with no polling timer. Requests pipelined on one connection
   may execute concurrently on the pool, but replies are flushed in
   arrival order — each request is assigned a reply slot in a
   per-connection FIFO at decode time, and only the head slot's
   completed response is moved to the wire.

   Admission control bounds the work the pool can be asked to queue: a
   request past the per-connection or global in-flight budget is
   answered immediately with [Busy_reply] (holding its position in the
   reply order) instead of being admitted, so overload degrades into
   load shedding rather than unbounded queueing.

   Threading: all socket I/O and connection state live on the loop
   domain. Workers only compute a response, publish it into their
   slot's atomic cell and write the wake byte; registry and metrics are
   thread-safe on their own.

   Failure posture: a request that cannot be decoded or executed is
   answered with [Error_reply] and the connection keeps serving
   (framing stays in sync because the length prefix was consumed); only
   a broken or oversized frame closes the connection. The daemon itself
   never dies on request input. *)

module Frame = Dataframe.Frame
module Schema = Dataframe.Schema
module Validator = Guardrail.Validator

module Config = struct
  type t = {
    pool_size : int;
    backlog : int;
    read_timeout_s : float;      (* 0. disables the idle timeout *)
    max_request_bytes : int;
    max_connections : int;
    max_inflight : int;          (* per-connection admission budget *)
    max_inflight_global : int;   (* across all connections *)
    shards : int;                (* registry partitions (used by callers
                                    that create the registry) *)
  }

  let make ?(pool_size = 4) ?(backlog = 128) ?(read_timeout_s = 30.0)
      ?(max_request_bytes = Protocol.default_max_frame)
      ?(max_connections = 1024) ?(max_inflight = 32)
      ?(max_inflight_global = 1024) ?(shards = 8) () =
    let positive name v =
      if v < 1 then
        invalid_arg
          (Printf.sprintf "Server.Config.make: %s must be >= 1 (got %d)" name v)
    in
    positive "pool_size" pool_size;
    positive "backlog" backlog;
    positive "max_request_bytes" max_request_bytes;
    positive "max_connections" max_connections;
    positive "max_inflight" max_inflight;
    positive "max_inflight_global" max_inflight_global;
    positive "shards" shards;
    if read_timeout_s < 0.0 then
      invalid_arg "Server.Config.make: read_timeout_s must be >= 0";
    {
      pool_size;
      backlog;
      read_timeout_s;
      max_request_bytes;
      max_connections;
      max_inflight;
      max_inflight_global;
      shards;
    }

  let default = make ()

  let with_pool_size v c = { c with pool_size = v }
  let with_backlog v c = { c with backlog = v }
  let with_read_timeout_s v c = { c with read_timeout_s = v }
  let with_max_request_bytes v c = { c with max_request_bytes = v }
  let with_max_connections v c = { c with max_connections = v }
  let with_max_inflight v c = { c with max_inflight = v }
  let with_max_inflight_global v c = { c with max_inflight_global = v }
  let with_shards v c = { c with shards = v }
end

type t = {
  config : Config.t;
  registry : Registry.t;
  metrics : Metrics.t;
  pool : Runtime.Pool.t;
  stop_requested : bool Atomic.t;
  (* live trace collector, installed/removed by the TRACE command; every
     worker reads it per request, so it is an atomic, not a field guarded
     by some per-connection state *)
  trace : Obs.Collector.t option Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_path : string option;  (* unix socket to unlink on close *)
  (* write end of the loop's self-pipe while [run] is live; workers and
     [stop] write one byte here to interrupt the [select] sleep *)
  mutable wake_fd : Unix.file_descr option;
  (* true while a wake byte is in flight: lets concurrent completions
     share one pipe write instead of stacking redundant wakeups *)
  wake_armed : bool Atomic.t;
}

let create ?(config = Config.default) registry =
  {
    config;
    registry;
    metrics = Metrics.create ();
    pool = Runtime.Pool.create ~size:config.Config.pool_size ();
    stop_requested = Atomic.make false;
    trace = Atomic.make None;
    listen_fd = None;
    bound_path = None;
    wake_fd = None;
    wake_armed = Atomic.make false;
  }

let registry t = t.registry
let metrics t = t.metrics
let config t = t.config

let wake_byte = Bytes.make 1 '!'

(* The pipe is non-blocking: EAGAIN means a wakeup is already pending,
   EBADF/EPIPE that the loop is gone — both fine to ignore. The armed
   flag suppresses redundant writes: once a byte is in flight, later
   completions ride on it (the loop re-arms after draining the pipe, and
   only then sweeps the reply queues, so a completion whose CAS fails is
   always observed by the sweep that follows the reset). *)
let wake t =
  if Atomic.compare_and_set t.wake_armed false true then
    match t.wake_fd with
    | None -> ()
    | Some fd -> ( try ignore (Unix.write fd wake_byte 0 1) with _ -> ())

(* Signal-safe: flips the atomic and pokes the self-pipe ([write] is
   async-signal-safe); the loop notices at its next iteration. *)
let stop t =
  Atomic.set t.stop_requested true;
  wake t

(* Stop plus release of the worker pool, for embedders that dispatch via
   {!handle_request} without ever entering [run] (both steps are no-ops
   when [run] already performed them). *)
let shutdown t =
  stop t;
  Runtime.Pool.shutdown t.pool

(* ------------------------------------------------------------------ *)
(* Request dispatch *)

(* Reuse the entry's compilation when the supplied rows share the
   registered frame's exact column layout; otherwise re-bind by name and
   compile for this request. *)
let compiled_for (entry : Registry.entry) (p : Registry.program) frame =
  if frame == entry.frame
     || Schema.names (Frame.schema frame) = Schema.names (Frame.schema entry.frame)
  then p.Registry.compiled
  else Validator.compile (Validator.rebind p.Registry.prog (Frame.schema frame))

let find_table t name =
  match Registry.find t.registry name with
  | Some entry -> entry
  | None -> failwith (Printf.sprintf "unknown table %S" name)

let guarded_entry t name =
  let entry = find_table t name in
  match entry.Registry.program with
  | Some p -> (entry, p)
  | None -> failwith (Printf.sprintf "table %S has no constraint program" name)

let target_frame (entry : Registry.entry) = function
  | None -> entry.Registry.frame
  | Some csv -> Dataframe.Csv.of_string csv

let csv_of_sql_result (r : Sqlexec.Exec.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat "," (List.map Dataframe.Csv.escape_field r.Sqlexec.Exec.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      let cells =
        Array.to_list
          (Array.map
             (fun v -> Dataframe.Csv.escape_field (Dataframe.Value.to_string v))
             row)
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    r.Sqlexec.Exec.rows;
  Buffer.contents buf

let sql_context t ~guard_table =
  let ctx = Sqlexec.Exec.create () in
  List.iter
    (fun (name, (entry : Registry.entry)) ->
      Sqlexec.Exec.register_table ctx name entry.Registry.frame;
      match entry.Registry.model with
      | Some (label, model) -> Sqlexec.Exec.register_model ctx ~target:label model
      | None -> ())
    (Registry.list t.registry);
  (match guard_table with
   | None -> ()
   | Some name ->
     let _, p = guarded_entry t name in
     Sqlexec.Exec.set_guard ctx p.Registry.compiled);
  ctx

let stats_reply t =
  let s = Metrics.snapshot t.metrics in
  let commands =
    List.map
      (fun (c : Metrics.command_stats) ->
        {
          Protocol.command = c.Metrics.command;
          count = c.Metrics.count;
          errors = c.Metrics.errors;
          mean_ms = 1e3 *. Metrics.mean_s c;
          max_ms = 1e3 *. c.Metrics.max_s;
        })
      s.Metrics.commands
  in
  Protocol.Stats_reply
    {
      uptime_s = s.Metrics.uptime_s;
      connections = s.Metrics.connections;
      served = s.Metrics.served;
      commands;
      rendered =
        Metrics.render s
        ^ Printf.sprintf "pool: %d failed job(s)\n" (Runtime.Pool.failures t.pool);
    }

let dispatch t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Protocol.Ok_reply "pong"
  | Protocol.Load { table; csv; program; model_label } ->
    let frame = Dataframe.Csv.of_string csv in
    let entry = Registry.load t.registry ~name:table ?program ?model_label frame in
    let statements =
      match entry.Registry.program with
      | Some p -> Guardrail.Dsl.stmt_count p.Registry.prog
      | None -> 0
    in
    Protocol.Loaded { table; rows = Frame.nrows frame; statements }
  | Protocol.Guard { table; program } ->
    let entry =
      try Registry.set_program t.registry ~name:table program
      with Not_found -> failwith (Printf.sprintf "unknown table %S" table)
    in
    let statements =
      match entry.Registry.program with
      | Some p -> Guardrail.Dsl.stmt_count p.Registry.prog
      | None -> 0
    in
    Protocol.Ok_reply
      (Printf.sprintf "installed %d statement(s) on %S" statements table)
  | Protocol.Detect { table; csv } ->
    let entry, p = guarded_entry t table in
    let frame = target_frame entry csv in
    let flags = Validator.detect (compiled_for entry p frame) frame in
    let violations = Array.fold_left (fun n b -> if b then n + 1 else n) 0 flags in
    Protocol.Detections { flags; violations }
  | Protocol.Rectify { table; strategy; csv } ->
    let entry, p = guarded_entry t table in
    let frame = target_frame entry csv in
    let repaired, vs =
      Validator.handle ~strategy (compiled_for entry p frame) frame
    in
    Protocol.Rectified
      { csv = Dataframe.Csv.to_string repaired; violations = List.length vs }
  | Protocol.Sql { query; guard_table } ->
    let ctx = sql_context t ~guard_table in
    let r = Sqlexec.Exec.run ctx query in
    Protocol.Sql_result
      {
        columns = r.Sqlexec.Exec.columns;
        csv = csv_of_sql_result r;
        rows = List.length r.Sqlexec.Exec.rows;
        violations = r.Sqlexec.Exec.stats.Sqlexec.Exec.violations;
        guardrail_ms = 1e3 *. r.Sqlexec.Exec.stats.Sqlexec.Exec.guardrail_s;
        inference_ms = 1e3 *. r.Sqlexec.Exec.stats.Sqlexec.Exec.inference_s;
      }
  | Protocol.Tables ->
    Protocol.Table_list
      (List.map
         (fun (name, (entry : Registry.entry)) ->
           {
             Protocol.name;
             rows = Frame.nrows entry.Registry.frame;
             columns = Frame.ncols entry.Registry.frame;
             has_program = entry.Registry.program <> None;
             has_model = entry.Registry.model <> None;
           })
         (Registry.list t.registry))
  | Protocol.Stats -> stats_reply t
  | Protocol.Shutdown ->
    stop t;
    Protocol.Shutting_down
  | Protocol.Trace { enable = true } ->
    (match Atomic.get t.trace with
     | Some _ -> failwith "tracing already active"
     | None ->
       Atomic.set t.trace (Some (Obs.Collector.create ()));
       Protocol.Ok_reply "tracing started")
  | Protocol.Trace { enable = false } ->
    (match Atomic.exchange t.trace None with
     | None -> failwith "tracing not active"
     | Some c -> Protocol.Ok_reply (Obs.Trace.to_chrome_json c))
  | Protocol.Append { table; csv } ->
    (* parse outside the registry's shard lock; the RMW inside
       append_rows serializes concurrent ingests of the table *)
    let rows = Dataframe.Csv.of_string csv in
    let entry =
      try Registry.append_rows t.registry ~name:table rows
      with Not_found -> failwith (Printf.sprintf "unknown table %S" table)
    in
    Protocol.Ingested
      {
        table;
        rows = Frame.nrows rows;
        total_rows = Frame.nrows entry.Registry.frame;
        epoch = Frame.Snapshot.epoch entry.Registry.frame;
      }
  | Protocol.Update { table; cells } ->
    let entry0 =
      match Registry.find t.registry table with
      | Some e -> e
      | None -> failwith (Printf.sprintf "unknown table %S" table)
    in
    let schema = Frame.schema entry0.Registry.frame in
    let cells =
      List.map
        (fun (row, column, value) ->
          (row, Dataframe.Schema.index schema column, Dataframe.Value.of_raw value))
        cells
    in
    let entry =
      try Registry.update_cells t.registry ~name:table cells
      with Not_found -> failwith (Printf.sprintf "unknown table %S" table)
    in
    Protocol.Ingested
      {
        table;
        rows = 0;
        total_rows = Frame.nrows entry.Registry.frame;
        epoch = Frame.Snapshot.epoch entry.Registry.frame;
      }
  | Protocol.Refresh { table } ->
    let _entry, report =
      try Registry.refresh t.registry ~name:table
      with Not_found -> failwith (Printf.sprintf "unknown table %S" table)
    in
    Protocol.Refreshed
      {
        table;
        checked = report.Registry.checked;
        stale = report.Registry.stale;
        refreshed = report.Registry.refreshed;
        dropped = report.Registry.dropped;
      }

(* Every per-request failure becomes an error reply, never a dead
   worker. *)
let handle_request t req : Protocol.response =
  match dispatch t req with
  | resp -> resp
  | exception Failure msg -> Protocol.Error_reply msg
  | exception Invalid_argument msg -> Protocol.Error_reply msg
  | exception Guardrail.Parse.Error { pos; message } ->
    Protocol.Error_reply (Printf.sprintf "program parse error at %d: %s" pos message)
  | exception Dataframe.Csv.Parse_error { line; message } ->
    Protocol.Error_reply (Printf.sprintf "csv parse error on line %d: %s" line message)
  | exception Sqlexec.Lexer.Error { pos; message } ->
    Protocol.Error_reply (Printf.sprintf "sql lex error at %d: %s" pos message)
  | exception Sqlexec.Parser.Error { pos; message } ->
    Protocol.Error_reply (Printf.sprintf "sql parse error at %d: %s" pos message)
  | exception Sqlexec.Exec.Runtime_error msg ->
    Protocol.Error_reply (Printf.sprintf "sql runtime error: %s" msg)
  | exception Validator.Violation_error msg ->
    Protocol.Error_reply (Printf.sprintf "violation: %s" msg)
  | exception e -> Protocol.Error_reply (Printexc.to_string e)

(* Execute one request with timing, metrics and the optional trace
   wrapper: with tracing live, every request becomes a root span named
   after its command; TRACE itself is exempt so the stop request does
   not record into the trace it exports. *)
let answer t req =
  let t0 = Unix.gettimeofday () in
  let resp =
    match Atomic.get t.trace with
    | Some c
      when (match req with
           | Protocol.Trace _ | Protocol.Shutdown -> false
           | _ -> true) ->
      Obs.Trace.with_collector c (fun () ->
          Obs.Span.with_ (Protocol.request_command req) (fun () ->
              handle_request t req))
    | Some _ | None -> handle_request t req
  in
  let ok = match resp with Protocol.Error_reply _ -> false | _ -> true in
  Metrics.record t.metrics ~command:(Protocol.request_command req) ~ok
    ~seconds:(Unix.gettimeofday () -. t0);
  resp

(* ------------------------------------------------------------------ *)
(* Event loop *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A reply slot: one per request, queued at decode time so replies leave
   in arrival order whatever order the pool finishes them in. Shed and
   protocol-error replies are born completed ([admitted = false]): they
   hold their position without having consumed admission budget. *)
type slot = {
  cell : Protocol.response option Atomic.t;  (* filled by a worker *)
  admitted : bool;
}

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;        (* partial-frame read buffer *)
  mutable rlen : int;            (* valid bytes at the front of rbuf *)
  pending : slot Queue.t;        (* replies owed, in request order *)
  out : string Queue.t;          (* encoded frames awaiting the wire *)
  mutable out_off : int;         (* bytes of the head frame already sent *)
  mutable inflight : int;        (* admitted requests not yet drained *)
  mutable last_activity : float; (* read or write progress *)
  mutable closing : bool;        (* EOF/error seen: flush, then close *)
  mutable dead : bool;           (* transport failed: close now *)
}

let ready resp = { cell = Atomic.make (Some resp); admitted = false }

let bind t addr =
  (match t.listen_fd with
   | Some _ -> invalid_arg "Server.bind: already bound"
   | None -> ());
  let domain = Unix.domain_of_sockaddr addr in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
   | Unix.ADDR_UNIX path ->
     if Sys.file_exists path then Unix.unlink path;
     t.bound_path <- Some path
   | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd t.config.Config.backlog;
  t.listen_fd <- Some fd;
  Unix.getsockname fd

let run t =
  let cfg = t.config in
  let listen =
    match t.listen_fd with
    | Some fd -> fd
    | None -> invalid_arg "Server.run: bind first"
  in
  Unix.set_nonblock listen;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  t.wake_fd <- Some wake_w;
  (* a pre-[run] stop may have armed the flag without a pipe to write
     to; clear it so the first real completion gets its byte through *)
  Atomic.set t.wake_armed false;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let global_inflight = ref 0 in
  let scratch = Bytes.create 65536 in           (* shared read chunk *)

  let destroy c =
    if Hashtbl.mem conns c.fd then begin
      Hashtbl.remove conns c.fd;
      close_quietly c.fd;
      (* admitted-but-undrained requests die with the connection; give
         their budget back so the global gauge cannot leak upward *)
      global_inflight := !global_inflight - c.inflight;
      Metrics.set_inflight t.metrics !global_inflight
    end
  in

  (* Admit one decoded request, or shed it. Admitted requests are
     collected into [batch] (in arrival order) rather than posted one by
     one: the caller dispatches the whole read chunk as a single pool
     job, so a pipelined batch costs one handoff and one wakeup instead
     of one per request. *)
  let submit c batch req =
    if c.inflight >= cfg.Config.max_inflight
       || !global_inflight >= cfg.Config.max_inflight_global
    then begin
      Metrics.shed t.metrics;
      Queue.push (ready Protocol.Busy_reply) c.pending
    end
    else begin
      c.inflight <- c.inflight + 1;
      incr global_inflight;
      Metrics.set_inflight t.metrics !global_inflight;
      let slot = { cell = Atomic.make None; admitted = true } in
      Queue.push slot c.pending;
      batch := (slot, req) :: !batch
    end
  in

  (* Run everything admitted from one read chunk on a single worker, in
     arrival order. Answers surface together, so the drain usually sends
     the whole batch in one [write]. Requests from different connections
     still run in parallel across the pool. *)
  let dispatch_batch batch =
    match List.rev !batch with
    | [] -> ()
    | jobs ->
      let job () =
        List.iter
          (fun (slot, req) ->
            let resp =
              try answer t req
              with e -> Protocol.Error_reply (Printexc.to_string e)
            in
            Atomic.set slot.cell (Some resp))
          jobs;
        wake t
      in
      (try Runtime.Pool.post t.pool job
       with Runtime.Pool.Stopped ->
         List.iter
           (fun (slot, _) ->
             Atomic.set slot.cell (Some Protocol.Shutting_down))
           jobs)
  in

  (* Assemble and dispatch every complete frame sitting in [c.rbuf]. *)
  let parse_frames c =
    let batch = ref [] in
    let continue = ref true in
    while !continue do
      if c.rlen < 4 then continue := false
      else begin
        let b = c.rbuf in
        let len =
          (Char.code (Bytes.get b 0) lsl 24)
          lor (Char.code (Bytes.get b 1) lsl 16)
          lor (Char.code (Bytes.get b 2) lsl 8)
          lor Char.code (Bytes.get b 3)
        in
        if len > cfg.Config.max_request_bytes then begin
          (* hostile or corrupt length prefix: answer and drop the
             connection — the stream cannot be resynchronised *)
          Metrics.protocol_error t.metrics;
          Queue.push
            (ready
               (Protocol.Error_reply
                  (Printf.sprintf "frame of %d bytes exceeds limit of %d" len
                     cfg.Config.max_request_bytes)))
            c.pending;
          c.closing <- true;
          continue := false
        end
        else if c.rlen < 4 + len then begin
          if Bytes.length c.rbuf < 4 + len then begin
            let bigger = Bytes.create (max (4 + len) (2 * Bytes.length c.rbuf)) in
            Bytes.blit c.rbuf 0 bigger 0 c.rlen;
            c.rbuf <- bigger
          end;
          continue := false
        end
        else begin
          let payload = Bytes.sub_string b 4 len in
          let rest = c.rlen - 4 - len in
          Bytes.blit b (4 + len) b 0 rest;
          c.rlen <- rest;
          match Protocol.decode_request payload with
          | exception Protocol.Error msg ->
            (* payload malformed but framing intact: reply in position
               and keep serving *)
            Metrics.protocol_error t.metrics;
            Queue.push (ready (Protocol.Error_reply msg)) c.pending
          | req -> submit c batch req
        end
      end
    done;
    dispatch_batch batch
  in

  let read_conn c =
    try
      let continue = ref true in
      while !continue do
        match Unix.read c.fd scratch 0 (Bytes.length scratch) with
        | 0 ->
          (* EOF: no more requests, but finish what was pipelined *)
          c.closing <- true;
          continue := false
        | n ->
          if Bytes.length c.rbuf < c.rlen + n then begin
            let bigger =
              Bytes.create (max (c.rlen + n) (2 * Bytes.length c.rbuf))
            in
            Bytes.blit c.rbuf 0 bigger 0 c.rlen;
            c.rbuf <- bigger
          end;
          Bytes.blit scratch 0 c.rbuf c.rlen n;
          c.rlen <- c.rlen + n;
          c.last_activity <- Unix.gettimeofday ();
          parse_frames c;
          (* a short read usually means the socket is drained; select is
             level-triggered, so any remainder re-arms it anyway *)
          if n < Bytes.length scratch then continue := false
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> c.dead <- true
  in

  (* Move head-of-line completed replies onto the write queue. Replies
     that become ready together are coalesced into one queue entry, so a
     whole pipelined batch usually leaves in a single [write]. *)
  let drain_ready c =
    if
      (not (Queue.is_empty c.pending))
      && Atomic.get (Queue.peek c.pending).cell <> None
    then begin
      let buf = Buffer.create 256 in
      let continue = ref true in
      while !continue && not (Queue.is_empty c.pending) do
        let slot = Queue.peek c.pending in
        match Atomic.get slot.cell with
        | None -> continue := false
        | Some resp ->
          ignore (Queue.pop c.pending);
          if slot.admitted then begin
            c.inflight <- c.inflight - 1;
            decr global_inflight;
            Metrics.set_inflight t.metrics !global_inflight
          end;
          Buffer.add_string buf (Protocol.frame (Protocol.encode_response resp))
      done;
      if Buffer.length buf > 0 then Queue.push (Buffer.contents buf) c.out
    end
  in

  let flush c =
    try
      let continue = ref true in
      while !continue && not (Queue.is_empty c.out) do
        let s = Queue.peek c.out in
        let remaining = String.length s - c.out_off in
        let n = Unix.write_substring c.fd s c.out_off remaining in
        c.last_activity <- Unix.gettimeofday ();
        if n = remaining then begin
          ignore (Queue.pop c.out);
          c.out_off <- 0
        end
        else begin
          c.out_off <- c.out_off + n;
          continue := false
        end
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> c.dead <- true
  in

  let accept_ready () =
    let continue = ref true in
    while !continue && Hashtbl.length conns < cfg.Config.max_connections do
      match Unix.accept listen with
      | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());  (* unix-domain sockets reject it *)
        Metrics.connection t.metrics;
        Hashtbl.replace conns fd
          {
            fd;
            rbuf = Bytes.create 4096;
            rlen = 0;
            pending = Queue.create ();
            out = Queue.create ();
            out_off = 0;
            inflight = 0;
            last_activity = Unix.gettimeofday ();
            closing = false;
            dead = false;
          }
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> continue := false
    done
  in

  let drain_wake () =
    let continue = ref true in
    while !continue do
      match Unix.read wake_r scratch 0 (Bytes.length scratch) with
      | 0 -> continue := false
      | _ -> ()
      | exception Unix.Unix_error _ -> continue := false
    done;
    (* re-arm only after the pipe is empty; the reply sweep at the top
       of the next iteration then observes every completion that lost
       the CAS race against this reset *)
    Atomic.set t.wake_armed false
  in

  let loop () =
    let stop_deadline = ref None in
    let running = ref true in
    while !running do
      let now = Unix.gettimeofday () in
      (* observe a stop request exactly once; from then on the loop only
         drains: no accepts, no reads, flush what is owed *)
      (match !stop_deadline with
       | None when Atomic.get t.stop_requested ->
         let grace =
           if cfg.Config.read_timeout_s > 0.0 then cfg.Config.read_timeout_s
           else 5.0
         in
         stop_deadline := Some (now +. grace)
       | _ -> ());
      let stopping = !stop_deadline <> None in

      Hashtbl.iter
        (fun _ c ->
          drain_ready c;
          if not (Queue.is_empty c.out) then flush c)
        conns;

      (* sweep: transport failures, and drained connections past EOF *)
      Hashtbl.fold
        (fun _ c acc ->
          if
            c.dead
            || (c.closing && Queue.is_empty c.pending && Queue.is_empty c.out)
          then c :: acc
          else acc)
        conns []
      |> List.iter destroy;

      if cfg.Config.read_timeout_s > 0.0 && not stopping then begin
        (* expire idle (and write-stalled) connections, but never one
           whose requests are still being computed *)
        let cutoff = now -. cfg.Config.read_timeout_s in
        Hashtbl.fold
          (fun _ c acc ->
            if c.last_activity < cutoff && Queue.is_empty c.pending then c :: acc
            else acc)
          conns []
        |> List.iter destroy
      end;

      let drained =
        Hashtbl.fold
          (fun _ c acc ->
            acc && Queue.is_empty c.pending && Queue.is_empty c.out)
          conns true
      in
      if stopping && (drained || now >= Option.get !stop_deadline) then
        running := false
      else begin
        let reads = ref [ wake_r ] in
        if (not stopping) && Hashtbl.length conns < cfg.Config.max_connections
        then reads := listen :: !reads;
        let writes = ref [] in
        Hashtbl.iter
          (fun fd c ->
            if not (stopping || c.closing || c.dead) then reads := fd :: !reads;
            if not (Queue.is_empty c.out) then writes := fd :: !writes)
          conns;
        let timeout =
          if stopping then 0.05
          else if cfg.Config.read_timeout_s > 0.0 && Hashtbl.length conns > 0
          then
            let next =
              Hashtbl.fold
                (fun _ c acc ->
                  Float.min acc (c.last_activity +. cfg.Config.read_timeout_s))
                conns infinity
            in
            Float.max 0.0 (next -. now)
          else -1.0  (* sleep until readiness or a wake byte *)
        in
        match Unix.select !reads !writes [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | rs, ws, _ ->
          if List.memq wake_r rs then drain_wake ();
          List.iter
            (fun fd ->
              if fd = listen then accept_ready ()
              else if fd <> wake_r then
                match Hashtbl.find_opt conns fd with
                | Some c -> read_conn c
                | None -> ())
            rs;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> flush c
              | None -> ())
            ws
      end
    done
  in
  (* One finalizer shared by every exit path — normal stop, drain
     deadline, or an exception out of the loop: join the workers, close
     the self-pipe, every connection and the listener, and unlink the
     unix-socket path exactly once. *)
  Fun.protect
    ~finally:(fun () ->
      Runtime.Pool.shutdown t.pool;
      t.wake_fd <- None;
      close_quietly wake_w;
      close_quietly wake_r;
      Hashtbl.fold (fun _ c acc -> c :: acc) conns [] |> List.iter destroy;
      close_quietly listen;
      t.listen_fd <- None;
      (match t.bound_path with
       | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
       | None -> ());
      t.bound_path <- None)
    loop

let serve t addr =
  let (_ : Unix.sockaddr) = bind t addr in
  run t
