(** Cell values for relational data.

    A single closed variant covering nulls, booleans, integers, floats and
    strings. Integers and floats compare numerically, so [Int 1] and
    [Float 1.0] are equal under {!equal}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

val null : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t

val is_null : t -> bool

(** Total order: [Null < Bool < numeric < String]; numerics compare by
    value across [Int]/[Float]. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Consistent with {!equal}: equal values hash equally (ints hash as their
    float image). *)
val hash : t -> int

(** Round-trippable textual form; [Null] prints as the empty string. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Parse a raw CSV field with type sniffing. Empty string and common NA
    spellings parse to [Null]; [-?[0-9]+] parses to [Int] when it fits
    (to [Float] otherwise); a plain decimal with an optional exponent
    ([-?], digits with at most one point, [[eE][+-]?[0-9]+]) parses to
    [Float]; ISO-8601 dates and timestamps ("YYYY-MM-DD", optionally
    "[T| ]HH:MM:SS[Z]", UTC) parse to epoch-seconds [Int]; anything else
    (["+5"], [" 5"], ["0x1F"], ["1_000"], ["inf"]) stays a [String]. *)
val of_raw : string -> t

(** Epoch seconds of an ISO-8601 date or timestamp, or [None] when the
    string is not one. *)
val of_iso8601 : string -> int option

(** Canonical ISO-8601 form of an epoch second ("YYYY-MM-DD" at midnight,
    "YYYY-MM-DDTHH:MM:SSZ" otherwise). Round-trips:
    [of_raw (iso8601_of_epoch e) = Int e]. *)
val iso8601_of_epoch : int -> string

val to_float : t -> float option
val to_int : t -> int option
