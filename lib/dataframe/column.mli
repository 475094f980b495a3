(** Dictionary-encoded column.

    Every distinct value gets a small integer code; cells are stored as a
    code array so statistical hot loops stay allocation-free. *)

type t

val of_values : Value.t array -> t
val of_list : Value.t list -> t

(** A column from parts already encoded, as [of_values] would build them:
    [dict] holds distinct values in first-occurrence order, [index] maps
    each to its position, and [codes] index [dict]. Not checked; the
    parts are owned by the column afterwards. *)
val of_encoded :
  codes:int array -> dict:Value.t array -> index:(Value.t, int) Hashtbl.t -> t

val length : t -> int

(** Number of distinct values ever inserted (codes range over
    [0 .. cardinality - 1]). *)
val cardinality : t -> int

val code : t -> int -> int
val value_of_code : t -> int -> Value.t
val get : t -> int -> Value.t

(** The underlying code array. Do not mutate. *)
val codes : t -> int array

(** The code-to-value dictionary. Do not mutate. *)
val dict : t -> Value.t array

val code_of_value : t -> Value.t -> int option
val to_values : t -> Value.t array

(** Functional single-cell update. *)
val set : t -> int -> Value.t -> t

val update : t -> (int * Value.t) list -> t

(** Keep rows whose index satisfies the predicate. *)
val select : t -> (int -> bool) -> t

(** Gather rows by index (duplicates allowed). *)
val take : t -> int array -> t

val append : t -> t -> t

(** Occurrence count per code. *)
val counts : t -> int array

(** Most frequent value, or [None] on an empty column. *)
val mode : t -> Value.t option
