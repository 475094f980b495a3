(* Tests for Runtime.Pool, the shared Domain worker pool: future
   plumbing, order preservation, failing jobs, and the shutdown
   contract (queued jobs drained, idempotent shutdown, deterministic
   Stopped after it). *)

module Pool = Runtime.Pool

let test_submit_await () =
  let pool = Pool.create ~size:4 () in
  let futures = List.init 20 (fun i -> Pool.submit pool (fun () -> i * i)) in
  let results = List.map Pool.await futures in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "squares" (List.init 20 (fun i -> i * i)) results

let test_map_list_order () =
  let pool = Pool.create ~size:3 () in
  let out = Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3; 4; 5 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 4; 5; 6 ] out

let test_map_list () =
  (* edge sizes: no elements, and many more elements than workers *)
  let pool = Pool.create ~size:2 () in
  let empty = Pool.map_list pool (fun x -> x + 1) [] in
  let long = Pool.map_list pool (fun x -> 2 * x) (List.init 200 Fun.id) in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "empty list" [] empty;
  Alcotest.(check (list int)) "long list, order preserved"
    (List.init 200 (fun i -> 2 * i)) long

let test_parmap_matches_map () =
  let xs = List.init 101 (fun i -> i) in
  let f x = (x * 7919) mod 101 in
  let expected = List.map f xs in
  Alcotest.(check (list int)) "no pool" expected (Pool.parmap f xs);
  let pool = Pool.create ~size:4 () in
  Alcotest.(check (list int)) "pool, default chunk" expected
    (Pool.parmap ~pool f xs);
  Alcotest.(check (list int)) "pool, chunk 1" expected
    (Pool.parmap ~pool ~chunk:1 f xs);
  Alcotest.(check (list int)) "pool, oversized chunk" expected
    (Pool.parmap ~pool ~chunk:1000 f xs);
  Pool.shutdown pool;
  let one = Pool.create ~size:1 () in
  Alcotest.(check (list int)) "single-worker pool" expected
    (Pool.parmap ~pool:one f xs);
  Pool.shutdown one

let test_exception_propagates () =
  let pool = Pool.create ~size:2 () in
  let fut = Pool.submit pool (fun () -> failwith "job blew up") in
  let raised =
    match Pool.await fut with
    | _ -> false
    | exception Failure msg -> msg = "job blew up"
  in
  Pool.shutdown pool;
  Alcotest.(check bool) "exception re-raised at await" true raised

let test_exception_reraised () =
  (* a failing job re-raises at map_list and leaves the pool usable *)
  let pool = Pool.create ~size:2 () in
  let raised =
    match
      Pool.map_list pool
        (fun x -> if x = 3 then failwith "job 3 blew up" else x)
        [ 1; 2; 3; 4 ]
    with
    | _ -> false
    | exception Failure msg -> msg = "job 3 blew up"
  in
  let after = Pool.await (Pool.submit pool (fun () -> 42)) in
  Pool.shutdown pool;
  Alcotest.(check bool) "exception re-raised at map_list" true raised;
  Alcotest.(check int) "pool still serves jobs" 42 after

let test_shutdown_drains () =
  (* more queued jobs than workers, some raising: every one runs
     before shutdown returns, and a raising post is swallowed *)
  let pool = Pool.create ~size:2 () in
  let counter = Atomic.make 0 in
  for i = 1 to 50 do
    Pool.post pool (fun () ->
        Atomic.incr counter;
        if i mod 7 = 0 then failwith "posted job blew up")
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "every queued job ran" 50 (Atomic.get counter);
  Alcotest.(check int) "nothing pending" 0 (Pool.pending pool);
  Alcotest.(check bool) "post after shutdown raises" true
    (match Pool.post pool (fun () -> ()) with
     | exception Pool.Stopped -> true
     | () -> false)

let test_shutdown_idempotent () =
  let pool = Pool.create ~size:3 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.post pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queued jobs drained" 10 (Atomic.get counter);
  Alcotest.(check int) "no workers left" 0 (Pool.size pool);
  (* second and third calls are documented no-ops *)
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check int) "still drained, nothing re-run" 10 (Atomic.get counter)

let test_shutdown_concurrent () =
  (* two domains racing shutdown: each worker must be joined exactly
     once, so neither call raises and both return *)
  let pool = Pool.create ~size:2 () in
  let a = Domain.spawn (fun () -> Pool.shutdown pool) in
  let b = Domain.spawn (fun () -> Pool.shutdown pool) in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no workers left" 0 (Pool.size pool)

let test_submit_after_shutdown_raises () =
  let pool = Pool.create ~size:2 () in
  Pool.shutdown pool;
  let stopped f = match f () with _ -> false | exception Pool.Stopped -> true in
  Alcotest.(check bool) "post raises Stopped" true
    (stopped (fun () -> Pool.post pool (fun () -> ())));
  Alcotest.(check bool) "submit raises Stopped" true
    (stopped (fun () -> ignore (Pool.submit pool (fun () -> 42))));
  (* still Stopped on repeat — deterministic, not racy *)
  Alcotest.(check bool) "submit raises Stopped again" true
    (stopped (fun () -> ignore (Pool.submit pool (fun () -> 42))))

let test_post_failures_counted () =
  let pool = Pool.create ~size:2 () in
  Pool.post pool (fun () -> ());
  Pool.wait_idle pool;
  Alcotest.(check int) "a job that returns is no failure" 0 (Pool.failures pool);
  Pool.post pool (fun () -> failwith "boom");
  Pool.wait_idle pool;
  Alcotest.(check int) "a raising job counts once" 1 (Pool.failures pool);
  (* a submitted job's exception goes to its future, not the count *)
  let fut = Pool.submit pool (fun () -> failwith "to the future") in
  (match Pool.await fut with _ -> () | exception Failure _ -> ());
  Pool.shutdown pool;
  Alcotest.(check int) "submit failures not counted" 1 (Pool.failures pool)

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "submit/await" `Quick test_submit_await;
          Alcotest.test_case "map_list order" `Quick test_map_list_order;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "parmap = map" `Quick test_parmap_matches_map;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "exception re-raised" `Quick test_exception_reraised;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "shutdown concurrent" `Quick test_shutdown_concurrent;
          Alcotest.test_case "submit after shutdown" `Quick
            test_submit_after_shutdown_raises;
          Alcotest.test_case "post failures counted" `Quick test_post_failures_counted;
        ] );
    ]
