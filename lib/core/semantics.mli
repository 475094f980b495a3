(** Denotational semantics, loss, ε-validity and coverage (paper §2.2). *)

val condition_holds : Dataframe.Frame.t -> int -> Dsl.condition -> bool
val condition_holds_values : Dataframe.Value.t array -> Dsl.condition -> bool

val eval_stmt : Dataframe.Value.t array -> Dsl.stmt -> Dataframe.Value.t array
val eval_prog : Dsl.prog -> Dataframe.Value.t array -> Dataframe.Value.t array

(** [(loss, support)] per Eqn. 2. *)
val branch_loss : Dataframe.Frame.t -> Dsl.stmt -> Dsl.branch -> int * int

val branch_epsilon_valid :
  Dataframe.Frame.t -> Dsl.stmt -> Dsl.branch -> epsilon:float -> bool

val stmt_epsilon_valid : Dataframe.Frame.t -> Dsl.stmt -> epsilon:float -> bool
val prog_epsilon_valid : Dataframe.Frame.t -> Dsl.prog -> epsilon:float -> bool

val branch_coverage : Dataframe.Frame.t -> Dsl.branch -> float
val stmt_coverage : Dataframe.Frame.t -> Dsl.stmt -> float

(** Average statement coverage; 0 for the empty program. *)
val prog_coverage : Dataframe.Frame.t -> Dsl.prog -> float

val stmt_loss : Dataframe.Frame.t -> Dsl.stmt -> int
val prog_loss : Dataframe.Frame.t -> Dsl.prog -> int
