(* Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas,
   doubled quotes, both LF and CRLF line endings.

   The reader is one pass over the byte buffer that builds the
   dictionary-encoded columns directly: each field's raw text is looked
   up, as a byte range, in a per-column table of the raw strings seen so
   far, so only a column's distinct strings are ever copied and sniffed
   by [Value.of_raw]. *)

exception Parse_error of { line : int; message : string }

let parse_error line message = raise (Parse_error { line; message })

(* Walk [s] field by field. [field src off len] receives each field's
   text as a range of [src]: [s] itself for a plain field, a scratch
   buffer (valid only during the call) for a quoted one. [record line]
   follows the last field of each record, with the physical line the
   record starts on. Blank lines at the end of the input are dropped; an
   interior blank line is a record of one empty field. A quote opens a
   quoted section only at the start of a field; after the closing quote
   the rest of the field is literal. *)
let scan s ~field ~record =
  let n = String.length s in
  let scratch = ref (Bytes.create 64) and slen = ref 0 in
  let add c =
    if !slen = Bytes.length !scratch then begin
      let bigger = Bytes.create (2 * !slen) in
      Bytes.blit !scratch 0 bigger 0 !slen;
      scratch := bigger
    end;
    Bytes.unsafe_set !scratch !slen c;
    incr slen
  in
  let line = ref 1 in
  (* the current record: its physical line, byte offset and fields so far *)
  let rline = ref 1 and rstart = ref 0 and nfields = ref 0 in
  (* blank records not yet known to be interior, and the first one's line *)
  let blanks = ref 0 and blank_line = ref 0 in
  let emit src off len =
    if !blanks > 0 then begin
      for k = 0 to !blanks - 1 do
        field "" 0 0;
        record (!blank_line + k)
      done;
      blanks := 0
    end;
    field src off len;
    incr nfields
  in
  let emit_scratch () = emit (Bytes.unsafe_to_string !scratch) 0 !slen in
  let end_record () =
    record !rline;
    nfields := 0
  in
  let new_line next =
    incr line;
    rline := !line;
    rstart := next
  in
  (* a plain field that started at [f], scanned up to [i] *)
  let rec plain f i =
    let i = ref i in
    while
      !i < n
      && match String.unsafe_get s !i with ',' | '\n' | '\r' | '"' -> false | _ -> true
    do
      incr i
    done;
    let i = !i in
    if i >= n then begin
      if !nfields > 0 || i > f then begin
        emit s f (i - f);
        end_record ()
      end
    end
    else
      match String.unsafe_get s i with
      | ',' ->
        emit s f (i - f);
        plain (i + 1) (i + 1)
      | '\n' -> terminate f i (i + 1)
      | '\r' when i + 1 < n && String.unsafe_get s (i + 1) = '\n' -> terminate f i (i + 2)
      | '"' when i = f ->
        slen := 0;
        quoted (i + 1)
      | _ -> plain f (i + 1)
  (* a plain field [f, i) ends its record; the next one starts at [next] *)
  and terminate f i next =
    if i = !rstart then begin
      if !blanks = 0 then blank_line := !rline;
      incr blanks
    end
    else begin
      emit s f (i - f);
      end_record ()
    end;
    new_line next;
    plain next next
  and quoted i =
    if i >= n then parse_error !line "unterminated quoted field"
    else
      match String.unsafe_get s i with
      | '"' when i + 1 < n && String.unsafe_get s (i + 1) = '"' ->
        add '"';
        quoted (i + 2)
      | '"' -> after_quote (i + 1)
      | '\n' ->
        incr line;
        add '\n';
        quoted (i + 1)
      | c ->
        add c;
        quoted (i + 1)
  (* the rest of a field after its closing quote, collected in scratch *)
  and after_quote i =
    if i >= n then begin
      if !nfields > 0 || !slen > 0 then begin
        emit_scratch ();
        end_record ()
      end
    end
    else
      match String.unsafe_get s i with
      | ',' ->
        emit_scratch ();
        plain (i + 1) (i + 1)
      | '\n' -> end_after_quote (i + 1)
      | '\r' when i + 1 < n && String.unsafe_get s (i + 1) = '\n' -> end_after_quote (i + 2)
      | c ->
        add c;
        after_quote (i + 1)
  and end_after_quote next =
    emit_scratch ();
    end_record ();
    new_line next;
    plain next next
  in
  plain 0 0

let parse_string s =
  let records = ref [] and fields = ref [] in
  scan s
    ~field:(fun src off len -> fields := String.sub src off len :: !fields)
    ~record:(fun _ ->
      records := List.rev !fields :: !records;
      fields := []);
  List.rev !records

(* ---- Raw-text tables ----

   Open addressing with linear probing from the byte range of a field to
   its column code, so a repeated cell is found without copying it. *)

module Raw = struct
  type t = {
    mutable keys : string array;
    mutable hashes : int array;
    mutable codes : int array;  (* -1: empty slot *)
    mutable size : int;
  }

  let create () =
    { keys = Array.make 16 ""; hashes = Array.make 16 0; codes = Array.make 16 (-1); size = 0 }

  (* FNV-1a over the range, then a final mix so the low bits used as the
     slot index depend on every byte *)
  let hash src off len =
    let h = ref 0x811c9dc5 in
    for k = off to off + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get src k)) * 0x01000193
    done;
    let h = !h land max_int in
    h lxor (h lsr 29)

  (* Top-level recursion, not local closures: a lookup runs per cell
     and must not allocate. *)
  let rec same_from key src off len k =
    k = len
    || String.unsafe_get key k = String.unsafe_get src (off + k)
       && same_from key src off len (k + 1)

  let rec probe t h src off len mask i =
    let c = Array.unsafe_get t.codes i in
    if c < 0 then -1
    else if
      Array.unsafe_get t.hashes i = h
      && (let key = Array.unsafe_get t.keys i in
          String.length key = len && same_from key src off len 0)
    then c
    else probe t h src off len mask ((i + 1) land mask)

  (* the code of the range, or -1 *)
  let find t h src off len =
    let mask = Array.length t.codes - 1 in
    probe t h src off len mask (h land mask)

  let insert_slot codes hashes keys h key c =
    let mask = Array.length codes - 1 in
    let rec free i = if codes.(i) < 0 then i else free ((i + 1) land mask) in
    let i = free (h land mask) in
    codes.(i) <- c;
    hashes.(i) <- h;
    keys.(i) <- key

  let add t h key c =
    if 2 * (t.size + 1) > Array.length t.codes then begin
      let cap = 2 * Array.length t.codes in
      let codes = Array.make cap (-1) and hashes = Array.make cap 0 and keys = Array.make cap "" in
      Array.iteri
        (fun i c -> if c >= 0 then insert_slot codes hashes keys t.hashes.(i) t.keys.(i) c)
        t.codes;
      t.codes <- codes;
      t.hashes <- hashes;
      t.keys <- keys
    end;
    insert_slot t.codes t.hashes t.keys h key c;
    t.size <- t.size + 1
end

(* One column under construction. Distinct raw strings can sniff to the
   same value ("" and "NA" are both [Null]), so a new raw string takes
   the code of its value when the value is already in the dictionary. *)
type builder = {
  raw : Raw.t;
  index : (Value.t, int) Hashtbl.t;
  mutable rev_dict : Value.t list;
  codes : int array;
}

let builder cap =
  { raw = Raw.create (); index = Hashtbl.create 64; rev_dict = []; codes = Array.make cap 0 }

let code_of_raw b src off len =
  let h = Raw.hash src off len in
  let c = Raw.find b.raw h src off len in
  if c >= 0 then c
  else begin
    let key = String.sub src off len in
    let v = Value.of_raw key in
    let c =
      match Hashtbl.find_opt b.index v with
      | Some c -> c
      | None ->
        let c = Hashtbl.length b.index in
        Hashtbl.add b.index v c;
        b.rev_dict <- v :: b.rev_dict;
        c
    in
    Raw.add b.raw h key c;
    c
  end

(* Numeric iff every value is a number or null and there are "many"
   distinct values; everything else is categorical (which is what
   GUARDRAIL consumes). *)
let kind_of_dict dict =
  if
    Array.length dict > 20
    && Array.for_all
         (fun (v : Value.t) ->
           match v with
           | Value.Null | Value.Int _ | Value.Float _ -> true
           | Value.Bool _ | Value.String _ -> false)
         dict
  then Schema.Numeric
  else Schema.Categorical

(* Records in [s] are at most its line terminators, plus one for an
   unterminated last line. *)
let max_records s =
  let n = String.length s in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get s i = '\n' then incr k
  done;
  if n > 0 && s.[n - 1] <> '\n' then !k + 1 else !k

let of_string ?(header = true) s =
  let cap = max 0 (max_records s - if header then 1 else 0) in
  let first = ref [] in          (* fields of the first record, reversed *)
  let names = ref [] in
  let cols = ref [||] in
  let arity = ref (-1) in        (* -1 until the first record ends *)
  let j = ref 0 and rows = ref 0 in
  (* the first ragged record; parsing goes on so that an unterminated
     quote further down still takes precedence *)
  let ragged = ref None in
  let field src off len =
    if !arity < 0 then first := String.sub src off len :: !first
    else begin
      if !j < !arity && Option.is_none !ragged then
        !cols.(!j).codes.(!rows) <- code_of_raw !cols.(!j) src off len;
      incr j
    end
  in
  let record line =
    if !arity < 0 then begin
      let fields = List.rev !first in
      arity := List.length fields;
      cols := Array.init !arity (fun _ -> builder cap);
      if header then names := fields
      else begin
        names := List.mapi (fun i _ -> Printf.sprintf "col%d" i) fields;
        List.iteri
          (fun j f -> !cols.(j).codes.(0) <- code_of_raw !cols.(j) f 0 (String.length f))
          fields;
        rows := 1
      end
    end
    else begin
      if !j <> !arity then begin
        if Option.is_none !ragged then
          ragged := Some (line, Printf.sprintf "expected %d fields, got %d" !arity !j)
      end
      else incr rows;
      j := 0
    end
  in
  scan s ~field ~record;
  if !arity < 0 then invalid_arg "Csv.of_string: empty input";
  Option.iter (fun (line, message) -> parse_error line message) !ragged;
  let columns =
    Array.map
      (fun b ->
        let codes = if !rows = cap then b.codes else Array.sub b.codes 0 !rows in
        Column.of_encoded ~codes ~dict:(Array.of_list (List.rev b.rev_dict)) ~index:b.index)
      !cols
  in
  let schema =
    Schema.make
      (List.mapi
         (fun j name -> { Schema.name; kind = kind_of_dict (Column.dict columns.(j)) })
         !names)
  in
  Frame.of_columns schema (Array.to_list columns)

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
