(* Cell values for relational data.

   GUARDRAIL's DSL literals range over strings, numbers and booleans
   (Fig. 2 of the paper); relational data additionally needs an explicit
   null. We keep a single closed variant so columns can be heterogeneous
   at parse time and dictionary-encoded afterwards. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let null = Null
let bool b = Bool b
let int i = Int i
let float f = Float f
let string s = String s

let is_null = function Null -> true | Bool _ | Int _ | Float _ | String _ -> false

(* Total order: Null < Bool < Int/Float (numeric, compared by value) < String.
   Int and Float compare numerically so that [Int 1] = [Float 1.0]; this is
   what SQL comparison semantics and dictionary encoding both want. *)
let compare a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ | Float _ -> 2
    | String _ -> 3
  in
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> if b then 1 else 2
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

let to_string = function
  | Null -> ""
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else string_of_float f
  | String s -> s

let pp ppf v =
  match v with
  | Null -> Fmt.string ppf "NULL"
  | String s -> Fmt.pf ppf "%S" s
  | Bool _ | Int _ | Float _ -> Fmt.string ppf (to_string v)

(* ---- ISO-8601 dates and timestamps (UTC, no leap seconds) ----

   Temporal columns get a numeric image for free: [of_raw] sniffs
   "YYYY-MM-DD[(T| )HH:MM:SS[Z]]" into epoch-seconds [Int], and
   [iso8601_of_epoch] renders the canonical form back, so
   [of_raw (iso8601_of_epoch e) = Int e] round-trips exactly. *)

(* Howard Hinnant's days-from-civil: days since 1970-01-01 of y-m-d. *)
let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = (m + 9) mod 12 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let month_days y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0 then 29 else 28
  | _ -> 0

let of_iso8601 s =
  let n = String.length s in
  let digits i k =
    (* the k-digit number at offset i, or None *)
    if i + k > n then None
    else begin
      let v = ref 0 and ok = ref true in
      for j = i to i + k - 1 do
        match s.[j] with
        | '0' .. '9' -> v := (!v * 10) + (Char.code s.[j] - Char.code '0')
        | _ -> ok := false
      done;
      if !ok then Some !v else None
    end
  in
  let date () =
    if n < 10 || s.[4] <> '-' || s.[7] <> '-' then None
    else
      match digits 0 4, digits 5 2, digits 8 2 with
      | Some y, Some m, Some d
        when m >= 1 && m <= 12 && d >= 1 && d <= month_days y m ->
        Some (days_from_civil y m d * 86400)
      | _ -> None
  in
  match date () with
  | None -> None
  | Some day_secs ->
    if n = 10 then Some day_secs
    else if
      (n = 19 || (n = 20 && s.[19] = 'Z'))
      && (s.[10] = 'T' || s.[10] = ' ')
      && s.[13] = ':' && s.[16] = ':'
    then
      match digits 11 2, digits 14 2, digits 17 2 with
      | Some h, Some mi, Some sec when h < 24 && mi < 60 && sec < 60 ->
        Some (day_secs + (h * 3600) + (mi * 60) + sec)
      | _ -> None
    else None

let iso8601_of_epoch e =
  let day = if e >= 0 then e / 86400 else (e - 86399) / 86400 in
  let rem = e - (day * 86400) in
  let y, m, d = civil_from_days day in
  if rem = 0 then Printf.sprintf "%04d-%02d-%02d" y m d
  else
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" y m d (rem / 3600)
      (rem mod 3600 / 60) (rem mod 60)

(* Shape of a numeric literal: [-?[0-9]+] is an integer; a plain decimal
   ([-?] digits with at most one point, at least one digit) with an
   optional exponent ([eE][+-]?[0-9]+) is a float. Nothing else is a
   number: no sign [+], spaces, underscores, radix prefixes or
   spelled-out infinities, so two distinct raw strings sniff to the
   same number only when they spell it differently as decimals. *)
type shape = Not_number | Integer | Decimal

let shape s =
  let n = String.length s in
  let rec digits i = if i < n && s.[i] >= '0' && s.[i] <= '9' then digits (i + 1) else i in
  let i0 = if n > 0 && s.[0] = '-' then 1 else 0 in
  let i = digits i0 in
  if i = n then if i > i0 then Integer else Not_number
  else
    let j = if s.[i] = '.' then digits (i + 1) else i in
    let mantissa = i - i0 + (if j > i then j - i - 1 else 0) in
    if mantissa = 0 then Not_number
    else if j = n then Decimal
    else if s.[j] = 'e' || s.[j] = 'E' then
      let k = if j + 1 < n && (s.[j + 1] = '+' || s.[j + 1] = '-') then j + 2 else j + 1 in
      let m = digits k in
      if m > k && m = n then Decimal else Not_number
    else Not_number

(* Parse a raw CSV field with mild type sniffing. The empty string and the
   conventional NA spellings become [Null]; decimal integers that fit an
   [int] become [Int], other decimals [Float]; ISO-8601
   dates/timestamps become epoch-seconds [Int]. *)
let of_raw s =
  match s with
  | "" | "NA" | "N/A" | "NaN" | "nan" | "null" | "NULL" -> Null
  | "true" | "True" | "TRUE" -> Bool true
  | "false" | "False" | "FALSE" -> Bool false
  | _ ->
    (match shape s with
     | Integer ->
       (match int_of_string_opt s with
        | Some i -> Int i
        | None -> Float (float_of_string s))
     | Decimal -> Float (float_of_string s)
     | Not_number ->
       (match of_iso8601 s with
        | Some e -> Int e
        | None -> String s))

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | String _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | Null | Float _ | String _ -> None
