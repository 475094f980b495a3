(* Minimal JSON tree, printer and parser — enough for the Chrome
   trace exporter, the benchmark's result lines and round-trip tests,
   with no external dependency. Numbers are floats; integral values print
   without a decimal point so trace ids stay readable. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      buf_add_escaped b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          buf_add_escaped b k;
          Buffer.add_string b "\":";
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 1024 in
  write b t;
  Buffer.contents b

(* --- recursive-descent parser --- *)

type parser_state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit v =
  if
    st.pos + String.length lit <= String.length st.s
    && String.sub st.s st.pos (String.length lit) = lit
  then (
    st.pos <- st.pos + String.length lit;
    v)
  else fail st (Printf.sprintf "expected %s" lit)

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let sub = String.sub st.s start (st.pos - start) in
  match float_of_string_opt sub with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "bad number %S" sub)

let parse_string_raw st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents b
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.s then fail st "short \\u escape";
                let hex = String.sub st.s st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st (Printf.sprintf "bad \\u escape %S" hex)
                in
                (* Encode the code point as UTF-8; surrogate pairs are
                   not recombined (trace attrs never need them). *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then (
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
                else (
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F))))
            | c -> fail st (Printf.sprintf "bad escape '\\%c'" c));
            go ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ()

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> Str (parse_string_raw st)
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then (
        advance st;
        List [])
      else
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then (
        advance st;
        Obj [])
      else
        let rec pairs acc =
          skip_ws st;
          let k = parse_string_raw st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              pairs ((k, v) :: acc)
          | Some '}' ->
              advance st;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
        in
        pairs []
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* --- accessors --- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function Num f -> Some (int_of_float f) | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
