(* Bytecode cache: one per compiled validator program.

   Entries are keyed by [Frame.Snapshot.key] — the (lineage id, epoch)
   pair that uniquely identifies frame content — never by physical
   identity. Each entry couples the lowered bytecode with that
   snapshot's Group cache so decision-table partitions are computed
   once and shared with every other consumer of the frame's groupings.

   A key miss first looks for an earlier epoch of the same lineage (a
   daemon table that was just appended to): its group cache is carried
   forward with [Group.Cache.advance] — merging the append delta
   instead of regrouping — and its program is reused whenever the
   extended frame still shares the dictionaries it was lowered
   against. Failing that, we still try to reuse a dict-compatible
   lowering from any other entry (row subsets share dictionaries with
   their parent), so e.g. validating take/filter derivatives of a
   cached frame never re-lowers. Lookup and compute run under a mutex,
   like Group.Cache, keeping the hit/miss counters
   schedule-independent. *)

module Frame = Dataframe.Frame
module Group = Dataframe.Group

type entry = {
  key : int * int;  (* Frame.Snapshot.key of the cached snapshot *)
  program : Program.t;
  groups : Group.Cache.t;
}

type t = {
  rules : Ruleset.t array;
  cap : int;
  max_entries : int;
  mutex : Mutex.t;
  mutable entries : entry list;  (* most recently inserted first *)
}

(* Created eagerly: a [lazy] handle forced from two domains at once
   raises [CamlinternalLazy.Undefined]. *)
let hits = Obs.Metric.counter Obs.Metric.default "vm.cache.hits"
let misses = Obs.Metric.counter Obs.Metric.default "vm.cache.misses"
let advanced = Obs.Metric.counter Obs.Metric.default "vm.cache.advanced"

let default_max_entries = 8

let create ?(cap = Lower.default_cap) ?(max_entries = default_max_entries) rules
    =
  if max_entries < 1 then invalid_arg "Vm.Cache.create: max_entries < 1";
  { rules; cap; max_entries; mutex = Mutex.create (); entries = [] }

let rec truncate k = function
  | [] -> []
  | _ when k = 0 -> []
  | e :: rest -> e :: truncate (k - 1) rest

let compatible_program t frame =
  match
    List.find_opt (fun e -> Program.compatible e.program frame) t.entries
  with
  | Some e -> Some e.program
  | None -> None

let get t frame =
  let key = Frame.Snapshot.key frame in
  Mutex.protect t.mutex @@ fun () ->
  match List.find_opt (fun e -> e.key = key) t.entries with
  | Some e ->
    Obs.Metric.incr hits;
    (e.program, e.groups)
  | None ->
    Obs.Metric.incr misses;
    let predecessor = List.find_opt (fun e -> fst e.key = fst key) t.entries in
    let program =
      match predecessor with
      | Some e when Program.compatible e.program frame -> e.program
      | _ -> (
        match compatible_program t frame with
        | Some p -> p
        | None -> Lower.lower ~cap:t.cap frame t.rules)
    in
    let groups =
      match predecessor with
      | Some e ->
        Obs.Metric.incr advanced;
        Group.Cache.advance e.groups frame
      | None -> Group.Cache.of_frame ~cap:t.cap frame
    in
    (* Superseded epochs of the same lineage are dropped: the new
       snapshot replaces them rather than crowding the LRU. *)
    let rest = List.filter (fun e -> fst e.key <> fst key) t.entries in
    t.entries <- truncate t.max_entries ({ key; program; groups } :: rest);
    (program, groups)

let length t = Mutex.protect t.mutex @@ fun () -> List.length t.entries

let rules t = t.rules
