(* Row-at-a-time reference interpreter for compiled guardrail programs:
   the oracle the VM differential suites compare Validator against.

   One materialized row and one decision-table probe per statement per
   row: [Vm.Ruleset.find] picks the rule a row's GIVEN values select and
   [Domain.atom_holds] checks its assignment. Nothing here shares the
   bytecode path (lowering, bitmaps, group partitions) it checks. *)

module Frame = Dataframe.Frame
module Value = Dataframe.Value
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
