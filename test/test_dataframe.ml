(* Unit and property tests for the dataframe substrate. *)

module Value = Dataframe.Value
module Schema = Dataframe.Schema
module Column = Dataframe.Column
module Frame = Dataframe.Frame
module Csv = Dataframe.Csv
module Split = Dataframe.Split
module Group = Dataframe.Group

let value = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "bool < int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  Alcotest.(check bool) "int < string" true (Value.compare (Value.Int 5) (Value.String "a") < 0);
  Alcotest.(check int) "int = float numerically" 0
    (Value.compare (Value.Int 1) (Value.Float 1.0));
  Alcotest.(check bool) "int < float" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0)

let test_value_equal_hash () =
  Alcotest.(check bool) "equal across int/float" true
    (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check int) "hash consistent with equal"
    (Value.hash (Value.Int 3)) (Value.hash (Value.Float 3.0))

let test_value_parse () =
  Alcotest.(check value) "int" (Value.Int 42) (Value.of_raw "42");
  Alcotest.(check value) "float" (Value.Float 4.5) (Value.of_raw "4.5");
  Alcotest.(check value) "bool" (Value.Bool true) (Value.of_raw "true");
  Alcotest.(check value) "null" Value.Null (Value.of_raw "");
  Alcotest.(check value) "na" Value.Null (Value.of_raw "N/A");
  Alcotest.(check value) "string" (Value.String "abc") (Value.of_raw "abc");
  Alcotest.(check value) "leading zeros" (Value.Int 7) (Value.of_raw "007");
  Alcotest.(check value) "exponent" (Value.Float 1000.) (Value.of_raw "1e3");
  Alcotest.(check value) "trailing point" (Value.Float 2.) (Value.of_raw "2.");
  Alcotest.(check value) "leading point" (Value.Float (-0.5)) (Value.of_raw "-.5");
  Alcotest.(check value) "past max_int" (Value.Float 1e20)
    (Value.of_raw "100000000000000000000");
  (* OCaml literal syntax is not CSV number syntax *)
  List.iter
    (fun s -> Alcotest.(check value) s (Value.String s) (Value.of_raw s))
    [ "0b101"; "0u12"; "0x1F"; "0o17"; "1_000"; "+5"; " 5"; "5 "; "Inf"; "inf";
      "-infinity"; "NAN"; "-nan"; "1e"; "-"; "."; "1.2.3"; "0x1p3" ]

let test_value_to_float () =
  Alcotest.(check (option (float 1e-9))) "int" (Some 3.0) (Value.to_float (Value.Int 3));
  Alcotest.(check (option (float 1e-9))) "bool" (Some 1.0) (Value.to_float (Value.Bool true));
  Alcotest.(check (option (float 1e-9))) "string" None (Value.to_float (Value.String "x"))

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_basic () =
  let s = Schema.make [ Schema.categorical "a"; Schema.numeric "b" ] in
  Alcotest.(check int) "arity" 2 (Schema.arity s);
  Alcotest.(check int) "index a" 0 (Schema.index s "a");
  Alcotest.(check int) "index b" 1 (Schema.index s "b");
  Alcotest.(check bool) "mem" true (Schema.mem s "a");
  Alcotest.(check (option int)) "absent" None (Schema.index_opt s "zzz")

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Schema.make: duplicate column \"a\"") (fun () ->
      ignore (Schema.make [ Schema.categorical "a"; Schema.categorical "a" ]))

(* ------------------------------------------------------------------ *)
(* Column *)

let col_abc () =
  Column.of_list
    [ Value.String "a"; Value.String "b"; Value.String "a"; Value.String "c" ]

let test_column_encoding () =
  let c = col_abc () in
  Alcotest.(check int) "length" 4 (Column.length c);
  Alcotest.(check int) "cardinality" 3 (Column.cardinality c);
  Alcotest.(check int) "same code for equal values" (Column.code c 0) (Column.code c 2);
  Alcotest.(check value) "decode" (Value.String "b") (Column.get c 1)

let test_column_set () =
  let c = col_abc () in
  let c' = Column.set c 1 (Value.String "zzz") in
  Alcotest.(check value) "updated" (Value.String "zzz") (Column.get c' 1);
  Alcotest.(check value) "original untouched" (Value.String "b") (Column.get c 1);
  Alcotest.(check int) "dictionary grew" 4 (Column.cardinality c')

let test_column_mode_counts () =
  let c = col_abc () in
  Alcotest.(check value) "mode" (Value.String "a") (Option.get (Column.mode c));
  let counts = Column.counts c in
  Alcotest.(check int) "count of a" 2 counts.(Column.code c 0)

let test_column_select_take () =
  let c = col_abc () in
  let even = Column.select c (fun i -> i mod 2 = 0) in
  Alcotest.(check int) "selected length" 2 (Column.length even);
  Alcotest.(check value) "selected first" (Value.String "a") (Column.get even 0);
  let gathered = Column.take c [| 3; 3; 0 |] in
  Alcotest.(check int) "take length" 3 (Column.length gathered);
  Alcotest.(check value) "take dup" (Value.String "c") (Column.get gathered 1)

let test_column_append () =
  let a = Column.of_list [ Value.Int 1; Value.Int 2 ] in
  let b = Column.of_list [ Value.Int 2; Value.Int 9 ] in
  let c = Column.append a b in
  Alcotest.(check int) "length" 4 (Column.length c);
  Alcotest.(check int) "shared code" (Column.code c 1) (Column.code c 2);
  Alcotest.(check value) "new value" (Value.Int 9) (Column.get c 3)

(* ------------------------------------------------------------------ *)
(* Frame *)

let small_frame () =
  let schema =
    Schema.make
      [ Schema.categorical "city"; Schema.categorical "state"; Schema.numeric "pop" ]
  in
  Frame.of_rows schema
    [
      [| Value.String "berkeley"; Value.String "CA"; Value.Int 120 |];
      [| Value.String "oakland"; Value.String "CA"; Value.Int 400 |];
      [| Value.String "reno"; Value.String "NV"; Value.Int 250 |];
    ]

let test_frame_accessors () =
  let f = small_frame () in
  Alcotest.(check int) "nrows" 3 (Frame.nrows f);
  Alcotest.(check int) "ncols" 3 (Frame.ncols f);
  Alcotest.(check value) "get" (Value.String "CA") (Frame.get f 1 1);
  Alcotest.(check value) "get_by_name" (Value.Int 250) (Frame.get_by_name f 2 "pop")

let test_frame_filter () =
  let f = small_frame () in
  let ca =
    Frame.filter f (fun f i -> Value.equal (Frame.get f i 1) (Value.String "CA"))
  in
  Alcotest.(check int) "filtered rows" 2 (Frame.nrows ca);
  Alcotest.(check value) "row 1" (Value.String "oakland") (Frame.get ca 1 0)

let test_frame_project () =
  let f = small_frame () in
  let p = Frame.project f [ "state"; "city" ] in
  Alcotest.(check int) "cols" 2 (Frame.ncols p);
  Alcotest.(check value) "reordered" (Value.String "CA") (Frame.get p 0 0)

let test_frame_set () =
  let f = small_frame () in
  let f' = Frame.set f 0 0 (Value.String "albany") in
  Alcotest.(check value) "updated" (Value.String "albany") (Frame.get f' 0 0);
  Alcotest.(check value) "original" (Value.String "berkeley") (Frame.get f 0 0)

let test_frame_append () =
  let f = small_frame () in
  let g = Frame.append f f in
  Alcotest.(check int) "rows doubled" 6 (Frame.nrows g);
  Alcotest.(check value) "second copy" (Value.String "reno") (Frame.get g 5 0)

let test_frame_categorical_indices () =
  let f = small_frame () in
  Alcotest.(check (list int)) "categoricals" [ 0; 1 ] (Frame.categorical_indices f)

let test_frame_code_matrix () =
  let f = small_frame () in
  let m = Frame.code_matrix f in
  Alcotest.(check int) "columns" 3 (Array.length m);
  Alcotest.(check int) "shared state code" m.(1).(0) m.(1).(1)

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv_roundtrip () =
  let f = small_frame () in
  let f' = Csv.of_string (Csv.to_string f) in
  Alcotest.(check int) "rows" (Frame.nrows f) (Frame.nrows f');
  Alcotest.(check (list string)) "names" (Frame.names f) (Frame.names f');
  for i = 0 to Frame.nrows f - 1 do
    for j = 0 to Frame.ncols f - 1 do
      Alcotest.(check value) "cell" (Frame.get f i j) (Frame.get f' i j)
    done
  done

let test_csv_quoting () =
  let text = "a,b\n\"x,1\",\"he said \"\"hi\"\"\"\nplain,2\n" in
  let f = Csv.of_string text in
  Alcotest.(check value) "embedded comma" (Value.String "x,1") (Frame.get f 0 0);
  Alcotest.(check value) "escaped quote" (Value.String "he said \"hi\"") (Frame.get f 0 1);
  Alcotest.(check value) "number sniffed" (Value.Int 2) (Frame.get f 1 1)

let test_csv_crlf () =
  let f = Csv.of_string "a,b\r\n1,x\r\n2,y\r\n" in
  Alcotest.(check int) "rows" 2 (Frame.nrows f);
  Alcotest.(check value) "cell" (Value.String "y") (Frame.get f 1 1)

let test_csv_ragged () =
  Alcotest.(check bool) "ragged raises" true
    (try
       ignore (Csv.of_string "a,b\n1\n");
       false
     with Csv.Parse_error _ -> true)

let test_csv_trailing_blank_lines () =
  List.iter
    (fun text ->
      let f = Csv.of_string text in
      Alcotest.(check int) (Printf.sprintf "rows of %S" text) 1 (Frame.nrows f);
      Alcotest.(check value) "cell" (Value.Int 2) (Frame.get f 0 1))
    [ "a,b\n1,2\n\n"; "a,b\r\n1,2\r\n\r\n"; "a,b\n1,2\n\n\n" ];
  (* an interior blank line in a one-column file is a NULL cell *)
  let f = Csv.of_string "a\nx\n\ny\n\n" in
  Alcotest.(check int) "one-column rows" 3 (Frame.nrows f);
  Alcotest.(check value) "interior blank" Value.Null (Frame.get f 1 0);
  (* and a trailing NULL cell survives the round trip *)
  let schema = Schema.make [ Schema.categorical "a" ] in
  let g = Frame.of_rows schema [ [| Value.String "x" |]; [| Value.Null |] ] in
  let g' = Csv.of_string (Csv.to_string g) in
  Alcotest.(check int) "round-trip rows" 2 (Frame.nrows g');
  Alcotest.(check value) "round-trip NULL" Value.Null (Frame.get g' 1 0)

let test_csv_error_line () =
  let line_of ?header text =
    match Csv.of_string ?header text with
    | _ -> Alcotest.failf "%S: no parse error" text
    | exception Csv.Parse_error { line; _ } -> line
  in
  Alcotest.(check int) "plain" 3 (line_of "a,b\n1,2\n3\n");
  (* the quoted field of line 2 spans a newline: the bad row is line 4 *)
  Alcotest.(check int) "after embedded newline" 4
    (line_of "a,b\n\"x\ny\",1\n3\n");
  Alcotest.(check int) "no header" 2 (line_of ~header:false "1,2\n3\n")

let test_csv_unterminated () =
  Alcotest.(check bool) "unterminated raises" true
    (try
       ignore (Csv.parse_string "a,\"oops");
       false
     with Csv.Parse_error _ -> true)

(* Cells that OCaml's literal parsers would merge with a decimal (or
   read as a float) each keep their own dictionary entry, and write
   back byte for byte. *)
let test_csv_distinct_spellings () =
  let cells =
    [ "5"; "0b101"; "12"; "0u12"; "31"; "0x1F"; "1000"; "1_000"; "Inf"; "infinity";
      "NAN"; " 5"; "+5" ]
  in
  let text = "a\n" ^ String.concat "\n" cells ^ "\n" in
  let f = Csv.of_string text in
  let c = Frame.column f 0 in
  Alcotest.(check int) "one entry per spelling" (List.length cells) (Column.cardinality c);
  Alcotest.(check string) "bytes round-trip" text (Csv.to_string f)

(* Names, kinds, codes and dictionaries (compared structurally, so
   [Int 1] and [Float 1.] differ), and the binning [ensure_domains]
   learns. *)
let same_frame a b =
  let n = Frame.ncols a in
  let schema = Frame.schema a and schema' = Frame.schema b in
  let a' = Frame.ensure_domains a and b' = Frame.ensure_domains b in
  Frame.names a = Frame.names b
  && Frame.nrows a = Frame.nrows b
  && List.for_all
       (fun j ->
         let c = Frame.column a j and c' = Frame.column b j in
         Schema.kind schema j = Schema.kind schema' j
         && Column.codes c = Column.codes c'
         && compare (Column.dict c) (Column.dict c') = 0
         && Frame.attr_codes a' j = Frame.attr_codes b' j
         && Frame.attr_card a' j = Frame.attr_card b' j
         &&
         match (Frame.binning a' j, Frame.binning b' j) with
         | None, None -> true
         | Some x, Some y -> Dataframe.Domain.equal_binning x y
         | _ -> false)
       (List.init n Fun.id)

type 'a outcome = Loaded of 'a | Parse_failed of int * string | Invalid of string

let outcome f =
  match f () with
  | x -> Loaded x
  | exception Csv.Parse_error { line; message } -> Parse_failed (line, message)
  | exception Invalid_argument m -> Invalid m

let pp_outcome ppf = function
  | Loaded _ -> Fmt.string ppf "loaded"
  | Parse_failed (line, m) -> Fmt.pf ppf "parse error at line %d: %s" line m
  | Invalid m -> Fmt.pf ppf "invalid: %s" m

let same_load ?header text =
  match
    (outcome (fun () -> Csv.of_string ?header text),
     outcome (fun () -> Oracle.csv_of_string ?header text))
  with
  | Loaded a, Loaded b -> same_frame a b
  | (Parse_failed _ | Invalid _ as x), (Parse_failed _ | Invalid _ as y) -> x = y
  | x, y -> QCheck.Test.fail_reportf "loader %a, oracle %a" pp_outcome x pp_outcome y

(* Random CSV text covering what the loader must treat like the
   row-list reference: quoting (commas, doubled quotes, embedded LF and
   CRLF, text after a closing quote), CRLF endings, NA spellings and
   booleans, ints and floats with aliasing spellings, ISO-8601 dates and
   timestamps, mixed numeric/string columns, numeric columns with more
   than 20 distinct values, blank lines inside and at the end, ragged
   rows, and unterminated quotes. *)
let gen_csv =
  let open QCheck.Gen in
  let cell =
    frequency
      [
        (3, oneofl [ "a"; "b"; "x y"; "a\"b"; "\"\""; "\"a,b\""; "\"he said \"\"hi\"\"\"" ]);
        (1, oneofl [ "\"two\nlines\""; "\"crlf\r\nin quotes\""; "\"x\"y"; "\"\"\"\"" ]);
        (2, oneofl [ ""; "NA"; "N/A"; "NaN"; "nan"; "null"; "NULL" ]);
        (1, oneofl [ "true"; "True"; "FALSE"; "false" ]);
        (3, map string_of_int (int_range (-30) 30));
        (2, oneofl [ "1"; "1.0"; "1e0"; "1."; "-0"; "0.5"; ".5"; "2.5e-3"; "007" ]);
        (1, oneofl [ "0x1F"; "1_000"; " 5"; "+5"; "inf"; "-nan" ]);
        (1, oneofl [ "2021-03-04"; "2021-03-04T05:06:07Z"; "2021-03-04 05:06:07"; "2021-02-30" ]);
      ]
  in
  let numeric =
    frequency
      [ (8, map string_of_int (int_range 0 60)); (1, oneofl [ "1.0"; "1e0"; "2.5"; "NA"; "" ]) ]
  in
  let line_end = frequency [ (4, return "\n"); (1, return "\r\n") ] in
  let* ncols = int_range 1 4 in
  (* per column: numeric-only or mixed *)
  let* kinds = list_repeat ncols bool in
  (* one file in five has ragged rows *)
  let* ragged = frequency [ (4, return 0); (1, return 10) ] in
  let row =
    let* cells = flatten_l (List.map (fun num -> if num then numeric else cell) kinds) in
    let* short = frequency [ (100, return false); (ragged, return true) ] in
    let* long = frequency [ (100, return false); (ragged, return true) ] in
    let cells =
      match cells with
      | _ :: (_ :: _ as rest) when short -> rest
      | cells -> if long then cells @ [ "extra" ] else cells
    in
    let* nl = line_end in
    (* a blank line is a one-field record: ragged unless ncols = 1 *)
    let* blank =
      frequency [ (25, return ""); ((if ncols = 1 then 3 else ragged / 10), line_end) ]
    in
    return (String.concat "," cells ^ nl ^ blank)
  in
  let header = String.concat "," (List.init ncols (Printf.sprintf "h%d")) in
  let* rows = list_size (int_range 0 40) row in
  let* trailing = list_size (int_range 0 2) line_end in
  let* tail = frequency [ (12, return ""); (1, return "\"unterminated"); (1, return "last,row") ] in
  return (String.concat "" ((header ^ "\n") :: rows) ^ String.concat "" trailing ^ tail)

let qcheck_csv_loader_matches_oracle =
  QCheck.Test.make ~name:"Csv.of_string equals the row-list oracle" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_csv)
    (fun text -> same_load text && same_load ~header:false text)

let qcheck_csv_parse_matches_oracle =
  QCheck.Test.make ~name:"Csv.parse_string equals the row-list oracle" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen_csv)
    (fun text ->
      outcome (fun () -> Csv.parse_string text)
      = outcome (fun () -> Oracle.csv_parse_string text))

(* Edge cases the generator reaches only by luck. *)
let test_csv_oracle_edges () =
  List.iter
    (fun text ->
      Alcotest.(check bool) (Printf.sprintf "%S" text) true
        (same_load text && same_load ~header:false text))
    [ ""; "\n"; "\r\n\r\n"; "a"; "a\n"; "\"\""; "a\n\"\""; "a\n\"\"\n"; "\na\n1\n";
      "a\nx\n\ny\n\n"; "a,b\n\n1,2\n"; "a,b\n1,2\n\n\n"; "a,b\n1\n\"x"; "a,a\n1,2\n";
      "a,b\n1,2,3\n4\n"; "a\n\"x\ny\"\n\n"; "a\r\nx\ry\r\n"; "a,b\n,\n"; "a\n\"\"x\n" ]

(* Every evaluation dataset at its Table-2 size loads to the same frame
   under both loaders. *)
let test_csv_datagen_matches_oracle () =
  List.iter
    (fun spec ->
      let _, frame = Datagen.Generate.dataset spec in
      let text = Csv.to_string frame in
      Alcotest.(check bool) spec.Datagen.Spec.name true
        (same_frame (Csv.of_string text) (Oracle.csv_of_string text)))
    Datagen.Spec.all;
  let numeric, _ = Datagen.Numeric.mixed () in
  let text = Csv.to_string numeric in
  Alcotest.(check bool) "numeric mixed" true
    (same_frame (Csv.of_string text) (Oracle.csv_of_string text))

(* ------------------------------------------------------------------ *)
(* Split *)

let test_split_deterministic () =
  let p1 = Split.permutation ~seed:7 100 in
  let p2 = Split.permutation ~seed:7 100 in
  Alcotest.(check (array int)) "same seed same permutation" p1 p2;
  let p3 = Split.permutation ~seed:8 100 in
  Alcotest.(check bool) "different seed differs" true (p1 <> p3)

let test_split_partition () =
  let f = small_frame () in
  let big = Frame.append (Frame.append f f) f in
  let train, test = Split.train_test ~seed:3 ~train_fraction:0.67 big in
  Alcotest.(check int) "total preserved" (Frame.nrows big)
    (Frame.nrows train + Frame.nrows test);
  Alcotest.(check bool) "both non-empty" true
    (Frame.nrows train > 0 && Frame.nrows test > 0)

let test_split_permutation_is_bijection () =
  let p = Split.permutation ~seed:11 500 in
  let seen = Array.make 500 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "bijection" true (Array.for_all (fun b -> b) seen)

(* ------------------------------------------------------------------ *)
(* Column regression: batch update and append dictionary growth *)

let test_column_update_batch () =
  let c = col_abc () in
  let c' =
    Column.update c
      [ (0, Value.String "x"); (1, Value.String "y"); (3, Value.String "x") ]
  in
  Alcotest.(check value) "updated 0" (Value.String "x") (Column.get c' 0);
  Alcotest.(check value) "updated 1" (Value.String "y") (Column.get c' 1);
  Alcotest.(check value) "updated 3" (Value.String "x") (Column.get c' 3);
  Alcotest.(check value) "untouched" (Value.String "a") (Column.get c' 2);
  Alcotest.(check value) "original intact" (Value.String "a") (Column.get c 0);
  Alcotest.(check int) "fresh values deduped in dict" 5 (Column.cardinality c');
  Alcotest.(check int) "shared fresh code" (Column.code c' 0) (Column.code c' 3)

let test_column_append_dict () =
  (* appending a column with no new values must not grow the dictionary *)
  let a = Column.of_list [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  let b = Column.of_list [ Value.Int 3; Value.Int 1 ] in
  let c = Column.append a b in
  Alcotest.(check int) "no new dict entries" 3 (Column.cardinality c);
  Alcotest.(check int) "remapped code" (Column.code c 2) (Column.code c 3);
  (* and new values are appended after the existing dictionary *)
  let d = Column.append a (Column.of_list [ Value.Int 9; Value.Int 9 ]) in
  Alcotest.(check int) "one new entry" 4 (Column.cardinality d);
  Alcotest.(check value) "new value decodes" (Value.Int 9) (Column.get d 4)

(* ------------------------------------------------------------------ *)
(* Group: the shared group-by kernel *)

(* Brute-force reference: dense first-occurrence group ids via an
   association list on full key tuples. *)
let ref_ids codes n =
  let key i = List.map (fun col -> col.(i)) codes in
  let seen = ref [] in
  let ids =
    Array.init n (fun i ->
        let k = key i in
        match List.assoc_opt k !seen with
        | Some g -> g
        | None ->
          let g = List.length !seen in
          seen := (k, g) :: !seen;
          g)
  in
  (ids, List.length !seen)

let check_csr g =
  let n = Group.n_rows g in
  let k = Group.n_groups g in
  let offsets = Group.offsets g in
  let rows = Group.row_index g in
  Alcotest.(check int) "offsets length" (k + 1) (Array.length offsets);
  Alcotest.(check int) "offsets start" 0 offsets.(0);
  Alcotest.(check int) "offsets end" n offsets.(k);
  for gid = 0 to k - 1 do
    Alcotest.(check bool) "offsets monotone" true (offsets.(gid) <= offsets.(gid + 1));
    for p = offsets.(gid) to offsets.(gid + 1) - 1 do
      Alcotest.(check int) "row id consistent" gid (Group.id g rows.(p));
      if p > offsets.(gid) then
        Alcotest.(check bool) "rows ascending" true (rows.(p - 1) < rows.(p))
    done
  done;
  let seen = Array.make n false in
  Array.iter (fun r -> seen.(r) <- true) rows;
  Alcotest.(check bool) "rows are a permutation" true (Array.for_all Fun.id seen)

let test_group_basic () =
  let c0 = [| 0; 1; 0; 1; 0 |] and c1 = [| 2; 0; 2; 1; 0 |] in
  let g = Group.make [ c0; c1 ] [ 2; 3 ] 5 in
  Alcotest.(check (array int)) "first-occurrence ids" [| 0; 1; 0; 2; 3 |] (Group.ids g);
  Alcotest.(check int) "n_groups" 4 (Group.n_groups g);
  Alcotest.(check (array int)) "counts" [| 2; 1; 1; 1 |] (Group.counts g);
  Alcotest.(check int) "size" 2 (Group.size g 0);
  Alcotest.(check int) "first_row" 0 (Group.first_row g 0);
  Alcotest.(check int) "first_row of late group" 4 (Group.first_row g 3);
  Alcotest.(check (array int)) "rows_of" [| 0; 2 |] (Group.rows_of g 0);
  check_csr g

let test_group_degenerate () =
  (* no columns: everything is one group *)
  let g = Group.make [] [] 3 in
  Alcotest.(check int) "one group" 1 (Group.n_groups g);
  Alcotest.(check (array int)) "all zero ids" [| 0; 0; 0 |] (Group.ids g);
  (* no rows *)
  let g0 = Group.make [ [||] ] [ 4 ] 0 in
  Alcotest.(check int) "empty has no groups" 0 (Group.n_groups g0);
  check_csr g0

let test_group_histograms () =
  let c0 = [| 0; 1; 0; 1; 0 |] in
  let v = [| 2; 0; 1; 0; 1 |] in
  let g = Group.make [ c0 ] [ 2 ] 5 in
  let h = Group.histograms g v ~card:3 in
  Alcotest.(check (array int)) "group 0 hist" [| 0; 2; 1 |] h.(0);
  Alcotest.(check (array int)) "group 1 hist" [| 2; 0; 0 |] h.(1)

let test_group_strata () =
  (* mixed-radix ids match the historical Contingency.strata formula *)
  let c0 = [| 0; 1; 1 |] and c1 = [| 2; 0; 2 |] in
  (match Group.strata ~max_strata:100 [ c0; c1 ] [ 2; 3 ] 3 with
  | None -> Alcotest.fail "strata gave up unexpectedly"
  | Some (ids, k) ->
    Alcotest.(check int) "stratum space" 6 k;
    (* id = c0 * 3 + c1 *)
    Alcotest.(check (array int)) "mixed-radix ids" [| 2; 3; 5 |] ids);
  (* empty conditioning set: one stratum *)
  (match Group.strata ~max_strata:100 [] [] 3 with
  | None -> Alcotest.fail "empty set gave up"
  | Some (ids, k) ->
    Alcotest.(check int) "one stratum" 1 k;
    Alcotest.(check (array int)) "zero ids" [| 0; 0; 0 |] ids);
  (* the product cap gives up exactly as before *)
  Alcotest.(check bool) "give-up over cap" true
    (Group.strata ~max_strata:4096 [ c0; c1 ] [ 100; 100 ] 3 = None);
  Alcotest.(check (option int)) "strata_count under cap" (Some 6)
    (Group.strata_count ~cap:100 [ 2; 3 ]);
  Alcotest.(check (option int)) "strata_count over cap" None
    (Group.strata_count ~cap:5 [ 2; 3 ])

let test_group_cache () =
  let codes = [| [| 0; 1; 0; 1 |]; [| 0; 0; 1; 1 |]; [| 1; 1; 1; 0 |] |] in
  let cache = Group.Cache.create ~codes ~cards:[| 2; 2; 2 |] () in
  let before =
    let snap = Obs.Metric.snapshot Obs.Metric.default in
    (List.assoc_opt "group.cache.hits" snap.Obs.Metric.counters,
     List.assoc_opt "group.cache.misses" snap.Obs.Metric.counters)
  in
  let g1 = Group.Cache.get cache [ 0; 2 ] in
  let g2 = Group.Cache.get cache [ 2; 0 ] in
  Alcotest.(check bool) "same key, same group (physically)" true (g1 == g2);
  Alcotest.(check int) "one entry" 1 (Group.Cache.length cache);
  let g3 = Group.Cache.get cache [ 1 ] in
  Alcotest.(check bool) "different key differs" true (g3 != g1);
  Alcotest.(check int) "two entries" 2 (Group.Cache.length cache);
  let after =
    let snap = Obs.Metric.snapshot Obs.Metric.default in
    (List.assoc_opt "group.cache.hits" snap.Obs.Metric.counters,
     List.assoc_opt "group.cache.misses" snap.Obs.Metric.counters)
  in
  let v o = Option.value ~default:0 o in
  (match (before, after) with
  | (h0, m0), (h1, m1) ->
    Alcotest.(check int) "one hit" 1 (v h1 - v h0);
    Alcotest.(check int) "two misses" 2 (v m1 - v m0))

let qcheck_codes =
  (* two code columns with small cardinalities, 1-40 rows *)
  QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 3) (int_bound 5)))

let columns_of_pairs rows =
  let n = List.length rows in
  let c0 = Array.of_list (List.map fst rows) in
  let c1 = Array.of_list (List.map snd rows) in
  (n, [ c0; c1 ], [ 4; 6 ])

let qcheck_group_paths_agree =
  QCheck.Test.make ~name:"mixed-radix and hashed paths assign equal ids" ~count:200
    qcheck_codes (fun rows ->
      let n, codes, cards = columns_of_pairs rows in
      let fast = Group.make ~cap:Group.default_cap codes cards n in
      let hashed = Group.make ~cap:1 codes cards n in
      Group.ids fast = Group.ids hashed
      && Group.counts fast = Group.counts hashed
      && Group.offsets fast = Group.offsets hashed
      && Group.row_index fast = Group.row_index hashed)

let qcheck_group_matches_reference =
  QCheck.Test.make ~name:"group ids match brute-force first-occurrence ids" ~count:200
    qcheck_codes (fun rows ->
      let n, codes, cards = columns_of_pairs rows in
      let g = Group.make codes cards n in
      let ids, k = ref_ids codes n in
      Group.ids g = ids && Group.n_groups g = k)

let qcheck_group_histograms =
  QCheck.Test.make ~name:"group histograms match brute-force counts" ~count:200
    qcheck_codes (fun rows ->
      let n, codes, cards = columns_of_pairs rows in
      let c0 = List.hd codes and c1 = List.nth codes 1 in
      let g = Group.make [ c0 ] [ List.hd cards ] n in
      let h = Group.histograms g c1 ~card:6 in
      let ok = ref true in
      for gid = 0 to Group.n_groups g - 1 do
        for v = 0 to 5 do
          let brute = ref 0 in
          for i = 0 to n - 1 do
            if Group.id g i = gid && c1.(i) = v then incr brute
          done;
          if h.(gid).(v) <> !brute then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Properties *)

let qcheck_value_roundtrip =
  QCheck.Test.make ~name:"value of_raw/to_string roundtrip on ints" ~count:200
    QCheck.int (fun i ->
      Value.equal (Value.Int i) (Value.of_raw (Value.to_string (Value.Int i))))

let qcheck_column_encoding =
  QCheck.Test.make ~name:"column decode inverts encode" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) small_int)
    (fun xs ->
      let values = List.map (fun i -> Value.Int i) xs in
      let c = Column.of_list values in
      List.for_all2 Value.equal values (Array.to_list (Column.to_values c)))

let qcheck_column_cardinality =
  QCheck.Test.make ~name:"column cardinality = distinct count" ~count:100
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 10))
    (fun xs ->
      let c = Column.of_list (List.map (fun i -> Value.Int i) xs) in
      Column.cardinality c = List.length (List.sort_uniq Int.compare xs))

let qcheck_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip on random string frames" ~count:50
    QCheck.(list_of_size Gen.(1 -- 20) (pair (string_gen_of_size Gen.(1 -- 8) Gen.printable) small_int))
    (fun rows ->
      QCheck.assume (rows <> []);
      let schema = Schema.make [ Schema.categorical "s"; Schema.categorical "n" ] in
      let frame =
        Frame.of_rows schema
          (List.map (fun (s, n) -> [| Value.String s; Value.Int n |]) rows)
      in
      let back = Csv.of_string (Csv.to_string frame) in
      Frame.nrows back = Frame.nrows frame
      && List.for_all
           (fun i ->
             (* empty strings round-trip to Null; accept both *)
             let orig = Frame.get frame i 0 in
             let got = Frame.get back i 0 in
             Value.equal orig got
             || (Value.equal orig (Value.String "") && Value.is_null got)
             || Value.equal got (Value.of_raw (Value.to_string orig)))
           (List.init (Frame.nrows frame) (fun i -> i)))

let () =
  Alcotest.run "dataframe"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          Alcotest.test_case "equal and hash" `Quick test_value_equal_hash;
          Alcotest.test_case "parsing" `Quick test_value_parse;
          Alcotest.test_case "to_float" `Quick test_value_to_float;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
        ] );
      ( "column",
        [
          Alcotest.test_case "encoding" `Quick test_column_encoding;
          Alcotest.test_case "functional set" `Quick test_column_set;
          Alcotest.test_case "mode and counts" `Quick test_column_mode_counts;
          Alcotest.test_case "select and take" `Quick test_column_select_take;
          Alcotest.test_case "append" `Quick test_column_append;
          Alcotest.test_case "batch update" `Quick test_column_update_batch;
          Alcotest.test_case "append dictionary growth" `Quick test_column_append_dict;
        ] );
      ( "frame",
        [
          Alcotest.test_case "accessors" `Quick test_frame_accessors;
          Alcotest.test_case "filter" `Quick test_frame_filter;
          Alcotest.test_case "project" `Quick test_frame_project;
          Alcotest.test_case "set" `Quick test_frame_set;
          Alcotest.test_case "append" `Quick test_frame_append;
          Alcotest.test_case "categorical indices" `Quick test_frame_categorical_indices;
          Alcotest.test_case "code matrix" `Quick test_frame_code_matrix;
        ] );
      ( "csv",
        [
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "quoting" `Quick test_csv_quoting;
          Alcotest.test_case "crlf" `Quick test_csv_crlf;
          Alcotest.test_case "ragged rejected" `Quick test_csv_ragged;
          Alcotest.test_case "unterminated rejected" `Quick test_csv_unterminated;
          Alcotest.test_case "trailing blank lines" `Quick
            test_csv_trailing_blank_lines;
          Alcotest.test_case "error line" `Quick test_csv_error_line;
          Alcotest.test_case "distinct spellings" `Quick test_csv_distinct_spellings;
          Alcotest.test_case "oracle edge cases" `Quick test_csv_oracle_edges;
          Alcotest.test_case "datagen datasets match oracle" `Slow
            test_csv_datagen_matches_oracle;
        ] );
      ( "split",
        [
          Alcotest.test_case "deterministic" `Quick test_split_deterministic;
          Alcotest.test_case "partition" `Quick test_split_partition;
          Alcotest.test_case "permutation bijection" `Quick test_split_permutation_is_bijection;
        ] );
      ( "group",
        [
          Alcotest.test_case "basic" `Quick test_group_basic;
          Alcotest.test_case "degenerate" `Quick test_group_degenerate;
          Alcotest.test_case "histograms" `Quick test_group_histograms;
          Alcotest.test_case "strata semantics" `Quick test_group_strata;
          Alcotest.test_case "cache" `Quick test_group_cache;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_value_roundtrip; qcheck_column_encoding;
            qcheck_column_cardinality; qcheck_csv_roundtrip;
            qcheck_csv_loader_matches_oracle; qcheck_csv_parse_matches_oracle;
            qcheck_group_paths_agree; qcheck_group_matches_reference;
            qcheck_group_histograms ] );
    ]
