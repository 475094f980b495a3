(** Minimal RFC-4180-ish CSV reader/writer. *)

exception Parse_error of { line : int; message : string }

(** Split raw CSV text into records of fields (quotes, embedded commas,
    doubled quotes, LF/CRLF). Blank lines at the end of the input are
    ignored; an interior blank line is a record of one empty field. *)
val parse_string : string -> string list list

(** Parse CSV text into a dataframe. Column kinds are sniffed: all-numeric
    high-cardinality columns become [Numeric], everything else
    [Categorical]. Raises {!Parse_error} on malformed input, with the
    physical line the bad record starts on, and [Invalid_argument] on
    empty input. *)
val of_string : ?header:bool -> string -> Frame.t

val load : ?header:bool -> string -> Frame.t
val to_string : Frame.t -> string
val save : Frame.t -> string -> unit

(** Quote one field for CSV output (RFC-4180 doubling rules). *)
val escape_field : string -> string
