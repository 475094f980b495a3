(** Lowering pass: rulesets -> predicate bytecode against one frame's
    dictionaries. Wrapped in a [vm.compile] span. *)

(** Mixed-radix cap forwarded to decision-table key indexing (same
    default as [Dataframe.Group.default_cap]). *)
val default_cap : int

(** [lower frame rules] compiles the rulesets to bytecode whose
    literals are resolved against [frame]'s dictionaries. The result
    [Program.compatible]-executes on [frame] and on any frame sharing
    those dictionaries (row subsets, code-preserving updates). Raises
    [Invalid_argument] if a ruleset references a column [frame] lacks. *)
val lower : ?cap:int -> Dataframe.Frame.t -> Ruleset.t array -> Program.t
