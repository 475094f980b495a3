(** The predicate-bytecode interpreter. *)

(** Result of one batch run over a frame: [per_stmt.(s)] has bit [i]
    set iff row [i] violates statement [s]; [any] is their union. *)
type verdicts = {
  n : int;
  any : Bitmap.t;
  per_stmt : Bitmap.t array;
}

(** [run program frame] executes the bytecode over [frame]'s code
    arrays. [groups], when given, must be the frame's own group cache;
    decision-table partitioning then reuses (and warms) it instead of
    regrouping. Wrapped in a [vm.exec] span; bumps [vm.rows.validated].
    Raises [Invalid_argument] when the frame no longer carries the
    dictionaries the program was lowered against. *)
val run :
  ?groups:Dataframe.Group.Cache.t -> Program.t -> Dataframe.Frame.t -> verdicts
