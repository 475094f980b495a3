(* Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas,
   doubled quotes, both LF and CRLF line endings. *)

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

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

let parse_string s = List.map snd (parse_records s)

(* Infer a column kind from parsed cells: numeric iff every non-null value
   parses as a number and there are "many" distinct values; everything else
   is treated as categorical (which is what GUARDRAIL consumes). *)
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

let of_string ?(header = true) s =
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
      List.mapi
        (fun j name ->
          match infer_kind (cells_of_col j) with
          | Schema.Numeric -> Schema.numeric name
          | Schema.Ordinal -> Schema.ordinal name
          | Schema.Categorical -> Schema.categorical name)
        names
    in
    Frame.of_rows (Schema.make cols) parsed

let load ?header path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string ?header s

let escape_field s =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_string df =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "," (List.map escape_field (Frame.names df)));
  Buffer.add_char buf '\n';
  Frame.iter_rows df (fun i ->
      let cells =
        List.init (Frame.ncols df) (fun j ->
            escape_field (Value.to_string (Frame.get df i j)))
      in
      (* a lone empty cell is written quoted: a blank last line would
         read back as no record at all *)
      Buffer.add_string buf
        (match cells with [ "" ] -> "\"\"" | _ -> String.concat "," cells);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let save df path =
  let oc = open_out_bin path in
  output_string oc (to_string df);
  close_out oc
