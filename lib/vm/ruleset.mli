(** The VM's source IR: one GUARDRAIL statement as a decision table.

    A rule maps a key tuple of atoms over the [given] columns to an
    expected atom over the [on] column. Key positions are normalized at
    construction: all-equality positions probe by the raw row value,
    all-range positions by the index of the (pairwise disjoint) interval
    containing the row value's float image. Mixing equality and range
    atoms at one position, or overlapping intervals, raises
    [Invalid_argument] — bin atoms ([Dataframe.Domain.bin_atom]) are
    disjoint by construction and always qualify. *)

type rule = {
  key : Dataframe.Domain.atom array;
      (** one atom per GIVEN column, in [given] order *)
  assignment : Dataframe.Domain.atom;
}

type t

(** [make ~given ~on rules] builds the table. [given] must be strictly
    ascending and must not contain [on]; every key must have one atom
    per GIVEN column. On duplicate (normalized) keys the last rule
    wins. Raises [Invalid_argument] on arity or atom-mix violations. *)
val make :
  given:int array ->
  on:int ->
  (Dataframe.Domain.atom array * Dataframe.Domain.atom) array ->
  t

val given : t -> int array
val on : t -> int
val n_rules : t -> int
val rule : t -> int -> rule

(** Any key position probed by interval rather than equality? *)
val has_range_keys : t -> bool

(** [has_range_keys], or any range assignment. Pure-equality rulesets
    lower exactly as they did before typed domains existed. *)
val has_ranges : t -> bool

(** [find_by t value_at] resolves the rule matched by a row whose value
    at key position [j] is [value_at j]. *)
val find_by : t -> (int -> Dataframe.Value.t) -> int option

(** [find t values] is [find_by] over a dense key tuple: [values.(j)]
    is the row's value for the [j]-th GIVEN column. *)
val find : t -> Dataframe.Value.t array -> int option

(** Does rule [i]'s own key resolve to [i]? False means a later rule
    shadows it; lowering drops shadowed rules. *)
val winning : t -> int -> bool
