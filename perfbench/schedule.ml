(* The serve-mixed request schedule: open-loop, seeded and rule-based.

   Two streams share one total rate. The ingest stream (connection 0)
   carries DETECT, APPEND and REFRESH; the query stream (connection 1)
   carries SQL, so a slow query never holds up a DETECT reply behind it
   on the same in-order connection. Each stream's arrivals are a
   Poisson process conditioned on its count (sorted uniform points),
   so the counts per kind are exact and the times depend only on the
   seed. Kinds are placed by rule: APPENDs evenly through the ingest
   stream, REFRESHes at the interior points that split it into equal
   parts (each follows some APPENDs), DETECT in every other slot; SQL
   shapes cycle through a seeded order. *)

type kind = Detect | Append | Refresh | Sql

type request = {
  conn : int;     (* 0 = ingest stream, 1 = query stream *)
  at : float;     (* scheduled send time, seconds after the start *)
  kind : kind;
  ordinal : int;  (* position among the requests of the same kind *)
  shape : int;    (* SQL query shape 0..3; 0 for other kinds *)
}

type mix = {
  rate : float;   (* requests per second, both streams together *)
  detect : float;
  append : float;
  refresh : float;
  sql : float;
}

let mix = { rate = 10.4; detect = 0.78; append = 0.08; refresh = 0.02; sql = 0.12 }

let kind_name = function
  | Detect -> "DETECT"
  | Append -> "APPEND"
  | Refresh -> "REFRESH"
  | Sql -> "SQL"

let shapes = 4

(* Requests of each kind in a run of [seconds]: at least one of each,
   and SQL a multiple of the shape count so every shape runs equally
   often. *)
let counts ~seconds =
  let total = mix.rate *. seconds in
  let c share = max 1 (int_of_float (Float.round (share *. total))) in
  let per_shape = Float.round (mix.sql *. total /. float_of_int shapes) in
  let sql = shapes * max 1 (int_of_float per_shape) in
  (c mix.detect, c mix.append, c mix.refresh, sql)

let arrivals rng ~n ~seconds =
  let a = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort Float.compare a;
  a

(* First slot at or after [i] (cyclically) still holding [Detect]. *)
let rec free kinds i =
  let i = i mod Array.length kinds in
  if kinds.(i) = Detect then i else free kinds (i + 1)

let make ~seed ~seconds =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n_detect, n_append, n_refresh, n_sql = counts ~seconds in
  let n_ingest = n_detect + n_append + n_refresh in
  let times_ingest = arrivals rng ~n:n_ingest ~seconds in
  let times_query = arrivals rng ~n:n_sql ~seconds in
  let kinds = Array.make n_ingest Detect in
  for j = 0 to n_refresh - 1 do
    kinds.(free kinds ((j + 1) * n_ingest / (n_refresh + 1))) <- Refresh
  done;
  for j = 0 to n_append - 1 do
    kinds.(free kinds (((2 * j) + 1) * n_ingest / (2 * n_append))) <- Append
  done;
  let order = Array.init shapes Fun.id in
  for i = shapes - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let seen = Hashtbl.create 4 in
  let next kind =
    let k = Option.value ~default:0 (Hashtbl.find_opt seen kind) in
    Hashtbl.replace seen kind (k + 1);
    k
  in
  let ingest =
    Array.to_list
      (Array.mapi
         (fun i at ->
           let kind = kinds.(i) in
           { conn = 0; at; kind; ordinal = next kind; shape = 0 })
         times_ingest)
  in
  let query =
    Array.to_list
      (Array.mapi
         (fun i at ->
           { conn = 1; at; kind = Sql; ordinal = i; shape = order.(i mod shapes) })
         times_query)
  in
  List.stable_sort (fun a b -> Float.compare a.at b.at) (ingest @ query)

let count kind schedule =
  List.length (List.filter (fun r -> r.kind = kind) schedule)
