(* Totals of a traced run: its spans by name, and the process-wide
   counters the libraries keep in [Obs.Metric.default]. *)

type t = Obs.Collector.event list

let of_collector = Obs.Collector.events

let named (t : t) name = List.filter (fun (e : Obs.Collector.event) -> e.name = name) t
let count t name = List.length (named t name)
let total f t name = Stats.sum (List.map f (named t name))
let dur = total (fun (e : Obs.Collector.event) -> e.dur_s)
let alloc_mb t name =
  total (fun (e : Obs.Collector.event) -> e.alloc_bytes) t name /. 1048576.

(* Mean milliseconds per span; 0 when there is none. *)
let mean_ms t name =
  match count t name with 0 -> 0. | n -> 1e3 *. dur t name /. float_of_int n

(* The per-call metric [metric] (ms) of the spans called [name]. *)
let per_call t ~metric name =
  Report.metric ~samples:(count t name) metric "ms" (mean_ms t name)

(* [a / (a + b)], 0 when both are 0: a hit rate from hit and miss counts. *)
let share a b = if a +. b > 0. then a /. (a +. b) else 0.

let counters names =
  List.map
    (fun n -> Obs.Metric.counter_value (Obs.Metric.counter Obs.Metric.default n))
    names

(* [f ()] and how much each named counter rose meanwhile. *)
let counting names f =
  let before = counters names in
  let x = f () in
  let after = counters names in
  let rise n (a, b) = (n, float_of_int (a - b)) in
  (x, List.map2 rise names (List.combine after before))
