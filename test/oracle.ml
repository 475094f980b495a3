(* Reference implementations the optimized paths are checked against.

   Row-at-a-time reference interpreter for compiled guardrail programs:
   the oracle the VM differential suites compare Validator against.

   One materialized row and one decision-table probe per statement per
   row: [Vm.Ruleset.find] picks the rule a row's GIVEN values select and
   [Domain.atom_holds] checks its assignment. Nothing here shares the
   bytecode path (lowering, bitmaps, group partitions) it checks. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Csv = Dataframe.Csv
module Domain = Dataframe.Domain
module Dsl = Guardrail.Dsl
module Validator = Guardrail.Validator

(* Per statement: its decision table and the branches parallel to the
   table's rules. A branch whose condition covers only part of GIVEN can
   never match a full determinant tuple, so it is dropped. *)
let tables (c : Validator.compiled) =
  List.map
    (fun (s : Dsl.stmt) ->
      let k = List.length s.Dsl.given in
      let branches =
        Array.of_list
          (List.filter
             (fun (b : Dsl.branch) -> List.length b.Dsl.condition = k)
             s.Dsl.branches)
      in
      let rules =
        Array.map
          (fun (b : Dsl.branch) ->
            ( Array.of_list (List.map (fun { Dsl.test; _ } -> test) b.Dsl.condition),
              b.Dsl.assignment ))
          branches
      in
      (s, branches, Vm.Ruleset.make ~given:(Array.of_list s.Dsl.given) ~on:s.Dsl.on rules))
    (Validator.source c).Dsl.stmts

let check_row tables ~row values =
  List.filter_map
    (fun ((s : Dsl.stmt), branches, rs) ->
      let key = Array.map (fun a -> values.(a)) (Vm.Ruleset.given rs) in
      match Vm.Ruleset.find rs key with
      | None -> None
      | Some r ->
        let branch = branches.(r) in
        let actual = values.(s.Dsl.on) in
        if Domain.atom_holds branch.Dsl.assignment actual then None
        else
          Some
            {
              Validator.row;
              stmt = s;
              branch;
              actual;
              expected = Domain.rectify branch.Dsl.assignment actual;
            })
    tables

(* Violations of one materialized row ([row] field is [-1]). *)
let check_values c values = check_row (tables c) ~row:(-1) values

(* All violations: rows ascending, statements in program order. *)
let violations_rows c frame =
  let t = tables c in
  List.concat
    (List.init (Frame.nrows frame) (fun i -> check_row t ~row:i (Frame.row frame i)))

let detect_rows c frame =
  let flags = Array.make (Frame.nrows frame) false in
  List.iter (fun v -> flags.(v.Validator.row) <- true) (violations_rows c frame);
  flags

(* Handling strategies applied one cell at a time. *)
let handle_rows ?(strategy = Validator.Ignore) c frame =
  let vs = violations_rows c frame in
  let set value =
    List.fold_left
      (fun f (v : Validator.violation) -> Frame.set f v.row v.stmt.Dsl.on (value v))
      frame vs
  in
  match strategy with
  | Validator.Ignore -> (frame, vs)
  | Validator.Raise ->
    (match vs with
     | [] -> (frame, [])
     | v :: _ ->
       raise (Validator.Violation_error (Validator.describe (Frame.schema frame) v)))
  | Validator.Coerce -> (set (fun _ -> Value.Null), vs)
  | Validator.Rectify -> (set (fun v -> v.Validator.expected), vs)

(* ------------------------------------------------------------------ *)
(* Row-list CSV loader: the reference for [Csv.of_string]. Parse every
   record into a list of strings, sniff every cell with [Value.of_raw],
   infer each column's kind from its cells, then encode the rows with
   [Frame.of_rows]. *)

let parse_error line message = raise (Csv.Parse_error { line; message })

(* Split the whole input into records of fields, each paired with the
   physical line it starts on. Blank lines at the end of the input are
   dropped; an interior blank line is a record of one empty field. *)
let parse_records s =
  let n = String.length s in
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 64 in
  let line = ref 1 in
  (* where the current record starts: physical line and byte offset *)
  let start_line = ref 1 and start = ref 0 in
  (* how many records at the head of [!records] are blank lines *)
  let trailing_blank = ref 0 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  (* [i] is the offset that ends the record *)
  let flush_record i =
    flush_field ();
    records := (!start_line, List.rev !fields) :: !records;
    fields := [];
    if i = !start then incr trailing_blank else trailing_blank := 0
  in
  let new_line i =
    incr line;
    start_line := !line;
    start := i
  in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then flush_record i)
    else
      match s.[i] with
      | ',' ->
        flush_field ();
        plain (i + 1)
      | '\n' ->
        flush_record i;
        new_line (i + 1);
        plain (i + 1)
      | '\r' when i + 1 < n && s.[i + 1] = '\n' ->
        flush_record i;
        new_line (i + 2);
        plain (i + 2)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then parse_error !line "unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> plain (i + 1)
      | '\n' ->
        incr line;
        Buffer.add_char buf '\n';
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  plain 0;
  let rec drop k l = if k = 0 then l else drop (k - 1) (List.tl l) in
  List.rev (drop !trailing_blank !records)

let csv_parse_string s = List.map snd (parse_records s)

(* Numeric iff every non-null value parses as a number and there are
   "many" distinct values. *)
let infer_kind cells =
  let all_numeric =
    List.for_all
      (fun v ->
        match (v : Value.t) with
        | Value.Null | Value.Int _ | Value.Float _ -> true
        | Value.Bool _ | Value.String _ -> false)
      cells
  in
  let distinct =
    let tbl = Hashtbl.create 64 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) cells;
    Hashtbl.length tbl
  in
  if all_numeric && distinct > 20 then Schema.Numeric else Schema.Categorical

let csv_of_string ?(header = true) s =
  match parse_records s with
  | [] -> invalid_arg "Csv.of_string: empty input"
  | (_, first) :: rest as all ->
    let names, data_rows =
      if header then (first, rest)
      else (List.mapi (fun i _ -> Printf.sprintf "col%d" i) first, all)
    in
    let arity = List.length names in
    let parsed =
      List.map
        (fun (line, r) ->
          if List.length r <> arity then
            parse_error line
              (Printf.sprintf "expected %d fields, got %d" arity (List.length r));
          Array.of_list (List.map Value.of_raw r))
        data_rows
    in
    let cells_of_col j = List.map (fun r -> r.(j)) parsed in
    let cols =
      List.mapi (fun j name -> { Schema.name; kind = infer_kind (cells_of_col j) }) names
    in
    Frame.of_rows (Schema.make cols) parsed
