(* Order statistics over latency samples.

   A failed operation is a sample of [infinity]: it misses every
   latency limit, so it can only push a percentile up. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] of the samples at or below it. *)
let rank ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n p - 1)

(* Samples strictly above the percentile's rank. *)
let beyond ~n p = n - rank ~n p

(* The support rule: a tail percentile (above the median) is reported
   only when at least ten samples lie beyond it; the median is always
   reported, with its sample count. *)
let min_beyond = 10

let supported ~n p = n >= 1 && (p <= 0.5 || beyond ~n p >= min_beyond)

(* [Some v] when the rule allows reporting percentile [p] of [xs]. *)
let reportable xs p =
  let a = sorted xs in
  let n = Array.length a in
  if supported ~n p then Some (percentile a p) else None

(* The highest of the usual tail percentiles the rule supports, as
   [(p, value)]; the median when no tail is supported. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let p = List.find (fun p -> supported ~n p) [ 0.99; 0.95; 0.9; 0.5 ] in
  (p, percentile a p)

(* The classical median: the mean of the two middle samples when their
   count is even. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs
