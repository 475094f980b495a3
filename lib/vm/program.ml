(* A lowered predicate program.

   Lowering resolves every literal of the source rulesets against the
   dictionaries of ONE frame, so execution touches only small-integer
   code arrays. The program therefore records which columns it read and
   the dictionary each had at lowering time; [compatible] checks (by
   physical equality — dictionaries are never mutated, only replaced)
   that a frame still carries those dictionaries. Frames derived by
   [Frame.take]/[Frame.filter]/code-preserving [Frame.set] share
   dictionaries with their parent, so one lowering serves a whole family
   of row subsets. *)

module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Value = Dataframe.Value

(* Rule lookup structure of one lowered decision table: a flat
   mixed-radix array when the GIVEN-cardinality product is small, a
   hashtable over code tuples otherwise. Mirrors the two key paths of
   [Dataframe.Group]. *)
type key_index =
  | Radix of int array                       (* radix combination -> rule, -1 none *)
  | Hashed of (int array, int) Hashtbl.t     (* code tuple -> rule *)
  | Probe
      (* range keys: resolve each partition's representative row through
         [Ruleset.find_by] at value level (once per partition, not per row) *)

(* A column's float image, shared by the RANGE ops and range-expect
   tables: fvals.(code) = Value.to_float dict.(code), NaN when the entry
   has no float image (Null, String). Code arrays stay the only per-row
   data the VM touches. *)
type field = {
  fcol : int;
  fvals : float array;
}

type table = {
  source : Ruleset.t;
  given : int array;        (* column indices, ascending *)
  cards : int array;        (* their cardinalities at lowering *)
  on : int;
  key : key_index;
  expect : int array;       (* per rule, see the expect_* encodings below *)
  rlo : float array;        (* per rule, accepted ON range; only read *)
  rhi : float array;        (*   where expect = expect_range *)
  on_fld : int;             (* fields index of ON, -1 when no range rules *)
}

(* [expect] encodes the set of accepted ON codes per rule:
   >= 0   exactly that code is accepted (the overwhelmingly common case);
   -1     no code of the dictionary is accepted — every matched row violates;
   -2     accepted iff rlo <= fvals(on_fld)[code] <= rhi (range assignment);
   <= -3  index [-3 - e] into the [masks] pool: a bitmask of accepted
          codes (only needed when Value.equal aliases several dictionary
          entries, e.g. Int 1 and Float 1.0). *)
let expect_none = -1
let expect_range = -2
let expect_single c = c
let expect_mask i = -3 - i
let mask_index e = -3 - e

type t = {
  source : Ruleset.t array;
  ops : Op.t array;
  n_regs : int;
  stmt_reg : int array;            (* stmt -> register holding its violations *)
  sets : Bytes.t array;            (* IN-instruction code masks *)
  masks : Bytes.t array;           (* accepted-code masks for aliased expects *)
  tables : table array;
  fields : field array;            (* float images for RANGE ops *)
  cols : int array;                (* columns the program reads *)
  dicts : Value.t array array;     (* their dictionaries at lowering *)
}

let source t = t.source
let n_stmts t = Array.length t.source
let n_ops t = Array.length t.ops
let n_tables t = Array.length t.tables

let compatible t frame =
  let ncols = Frame.ncols frame in
  try
    Array.iteri
      (fun j c ->
        if c >= ncols || Column.dict (Frame.column frame c) != t.dicts.(j) then
          raise Exit)
      t.cols;
    true
  with Exit -> false

let pp ppf t =
  Fmt.pf ppf "@[<v>%d stmt(s), %d reg(s), %d table(s)@,%a@]" (n_stmts t)
    t.n_regs (n_tables t)
    Fmt.(iter Array.iter Op.pp)
    t.ops
