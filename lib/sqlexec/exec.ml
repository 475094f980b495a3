(* Executor for ML-integrated SQL queries.

   Mirrors the paper's §7 prototype: rows flow through the plan's
   pre-filter, then — when the query calls PREDICT() — each surviving row
   is first vetted by the guardrail (with one of the four handling
   strategies) and only then handed to the ML backend; predictions replace
   the PREDICT() expressions and the rest of the query (post-filter,
   grouping, aggregation) runs as usual. Guardrail time and inference time
   are metered separately (Table 6). *)

open Sql_ast

module Frame = Dataframe.Frame
module Value = Dataframe.Value

exception Runtime_error of string

type context = {
  tables : (string, Frame.t) Hashtbl.t;
  models : (string, Mlmodel.Ensemble.t) Hashtbl.t;  (* keyed by target name *)
  (* the installed guard, pre-compiled against its own schema; queries
     over tables with an identical column layout reuse the compilation,
     others re-bind by column name through [rebound] *)
  mutable guard : (Guardrail.Validator.compiled * Guardrail.Validator.strategy) option;
  (* re-bound guard compilations keyed by column-name layout, so a view
     with a different layout compiles (and lowers its bytecode) once,
     not once per query; most recent first, bounded *)
  mutable rebound : (string list * Guardrail.Validator.compiled) list;
}

type stats = {
  rows_scanned : int;
  rows_predicted : int;
  violations : int;
  guardrail_s : float;
  inference_s : float;
}

type result = {
  columns : string list;
  rows : Value.t array list;
  stats : stats;
}

let create () =
  {
    tables = Hashtbl.create 8;
    models = Hashtbl.create 8;
    guard = None;
    rebound = [];
  }

let register_table ctx name frame = Hashtbl.replace ctx.tables name frame

let register_model ctx ~target model = Hashtbl.replace ctx.models target model

let set_guard ctx ?(strategy = Guardrail.Validator.Rectify) compiled =
  ctx.guard <- Some (compiled, strategy);
  ctx.rebound <- []

let clear_guard ctx =
  ctx.guard <- None;
  ctx.rebound <- []

(* Row environment: materialized (possibly repaired) values plus the
   prediction per target. *)
type env = {
  schema : Dataframe.Schema.t;
  values : Value.t array;
  predictions : (string * Value.t) list;
}

let truthy = function Value.Bool b -> b | Value.Null -> false | _ -> false

let numeric v =
  match Value.to_float v with
  | Some f -> f
  | None -> raise (Runtime_error (Fmt.str "non-numeric value %a" Value.pp v))

let cmp_values op va vb =
  if Value.is_null va || Value.is_null vb then Value.Bool false
  else begin
    let c = Value.compare va vb in
    Value.Bool
      (match op with
       | Eq -> c = 0
       | Neq -> c <> 0
       | Lt -> c < 0
       | Le -> c <= 0
       | Gt -> c > 0
       | Ge -> c >= 0)
  end

let arith_values op va vb =
  if Value.is_null va || Value.is_null vb then Value.Null
  else begin
    let x = numeric va and y = numeric vb in
    match op with
    | Add -> Value.Float (x +. y)
    | Sub -> Value.Float (x -. y)
    | Mul -> Value.Float (x *. y)
    | Div -> if y = 0.0 then Value.Null else Value.Float (x /. y)
  end

(* The one expression semantics. [leaf] resolves the nodes that read
   state (columns, predictions, aggregates); every other node combines
   its operands' values identically in row and group context. *)
let rec eval_with leaf e =
  match e with
  | Lit v -> v
  | Col _ | Predict _ | Agg _ -> leaf e
  | Cmp (op, a, b) ->
    let va = eval_with leaf a and vb = eval_with leaf b in
    cmp_values op va vb
  | Arith (op, a, b) ->
    let va = eval_with leaf a and vb = eval_with leaf b in
    arith_values op va vb
  | And (a, b) -> Value.Bool (truthy (eval_with leaf a) && truthy (eval_with leaf b))
  | Or (a, b) -> Value.Bool (truthy (eval_with leaf a) || truthy (eval_with leaf b))
  | Not e -> Value.Bool (not (truthy (eval_with leaf e)))
  | Case (whens, else_) ->
    let rec go = function
      | (cond, v) :: rest ->
        if truthy (eval_with leaf cond) then eval_with leaf v else go rest
      | [] -> (match else_ with Some e -> eval_with leaf e | None -> Value.Null)
    in
    go whens

(* Row context: leaves read the row's values and predictions. *)
let eval env =
  eval_with (function
    | Col name ->
      (match Dataframe.Schema.index_opt env.schema name with
       | Some i -> env.values.(i)
       | None -> raise (Runtime_error (Printf.sprintf "unknown column %S" name)))
    | Predict target ->
      (match List.assoc_opt target env.predictions with
       | Some v -> v
       | None -> raise (Runtime_error (Printf.sprintf "no prediction for %S" target)))
    | _ -> raise (Runtime_error "aggregate outside aggregation context"))

let aggregate group fn arg =
  let values =
    match arg with
    | None -> List.map (fun _ -> Value.Int 1) group
    | Some a -> List.map (fun env -> eval env a) group
  in
  let numerics =
    List.filter_map (fun v -> if Value.is_null v then None else Value.to_float v) values
  in
  match fn with
  | Count ->
    (match arg with
     | None -> Value.Int (List.length group)
     | Some _ ->
       Value.Int (List.length (List.filter (fun v -> not (Value.is_null v)) values)))
  | Sum -> Value.Float (List.fold_left ( +. ) 0.0 numerics)
  | Avg ->
    (match numerics with
     | [] -> Value.Null
     | _ ->
       Value.Float
         (List.fold_left ( +. ) 0.0 numerics /. float_of_int (List.length numerics)))
  | Min ->
    (match List.filter (fun v -> not (Value.is_null v)) values with
     | [] -> Value.Null
     | v :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v rest)
  | Max ->
    (match List.filter (fun v -> not (Value.is_null v)) values with
     | [] -> Value.Null
     | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest)

(* Group context: aggregates fold over the group's rows, wherever they
   sit in the expression; columns and predictions read the group's
   representative row (all rows of a group agree on its key
   expressions), or NULL in the one empty group of an ungrouped
   aggregate over no rows. *)
let eval_agg group =
  eval_with (function
    | Agg (fn, arg) -> aggregate group fn arg
    | leaf -> (match group with env :: _ -> eval env leaf | [] -> Value.Null))

let find_table ctx name =
  match Hashtbl.find_opt ctx.tables name with
  | Some f -> f
  | None -> raise (Runtime_error (Printf.sprintf "unknown table %S" name))

let find_model ctx target =
  match Hashtbl.find_opt ctx.models target with
  | Some m -> m
  | None -> raise (Runtime_error (Printf.sprintf "no model registered for %S" target))

let now () = Unix.gettimeofday ()

(* WHERE conjuncts over one column: such a conjunct depends on a row only
   through that column's value, so [eval] runs once per dictionary entry
   and rows pass or fail by their code. This is [eval] itself, so it
   agrees with row-at-a-time evaluation on every operator and value
   (NULL, NaN, mixed types). Returns the column's codes and per-code
   verdicts, or [None] — keeping the conjunct on the per-row path — when
   it reads zero or several columns, or when [eval] raises on some
   entry, so errors surface exactly where row-at-a-time evaluation
   raises them. *)
let dict_verdicts frame schema e =
  match List.sort_uniq String.compare (Sql_ast.columns e) with
  | [ name ] ->
    Option.bind (Dataframe.Schema.index_opt schema name) (fun col ->
        let column = Frame.column frame col in
        let values = Array.make (Frame.ncols frame) Value.Null in
        let env = { schema; values; predictions = [] } in
        match
          Array.map
            (fun v ->
              values.(col) <- v;
              truthy (eval env e))
            (Dataframe.Column.dict column)
        with
        | pass -> Some (Dataframe.Column.codes column, pass)
        | exception Runtime_error _ -> None)
  | _ -> None

(* Retained rebound-guard layouts (most recent first). *)
let rebound_limit = 4

(* The guard compilation fitting [schema]: the installed one when the
   column layout matches, a cached-or-fresh name-rebound compilation
   otherwise. Caching the rebound compilation keeps its VM bytecode
   cache alive across queries, so a view's guard lowers once. *)
let guard_for ctx schema table_name =
  match ctx.guard with
  | None -> None
  | Some (compiled, strategy) ->
    let prog = Guardrail.Validator.source compiled in
    let names = Dataframe.Schema.names schema in
    if Dataframe.Schema.names prog.Guardrail.Dsl.schema = names then
      Some (compiled, strategy)
    else begin
      match List.assoc_opt names ctx.rebound with
      | Some c -> Some (c, strategy)
      | None ->
        (try
           let c =
             Guardrail.Validator.compile
               (Guardrail.Validator.rebind prog schema)
           in
           ctx.rebound <-
             (names, c)
             :: List.filteri (fun i _ -> i < rebound_limit - 1) ctx.rebound;
           Some (c, strategy)
         with Invalid_argument msg ->
           raise
             (Runtime_error
                (Printf.sprintf "guard does not fit table %S: %s" table_name
                   msg)))
    end

let run ctx sql =
  Obs.Span.with_ "sql.query" @@ fun () ->
  let q = Parser.query sql in
  let plan = Plan.of_query q in
  let frame = find_table ctx plan.Plan.table in
  let schema = Frame.schema frame in
  let n = Frame.nrows frame in
  (* When the queried table has the guard's exact column layout, reuse the
     compilation built once in [set_guard]; otherwise (views may order or
     extend columns differently) the name-rebound compilation is built
     once per layout and cached on the context. *)
  let guard = guard_for ctx schema plan.Plan.table in
  let guardrail_s = ref 0.0 in
  let inference_s = ref 0.0 in
  let violations = ref 0 in
  let rows_predicted = ref 0 in
  (* scan + pre-filter: conjuncts run in written order per row, as
     row-at-a-time evaluation would; single-column ones read the row's
     code, and a row is materialized only when a conjunct needs it *)
  let pre_filter =
    List.map
      (fun e ->
        match dict_verdicts frame schema e with
        | Some (codes, pass) -> fun _ i -> pass.(codes.(i))
        | None -> fun env _ -> truthy (eval (Lazy.force env) e))
      plan.Plan.pre_filter
  in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    let env = lazy { schema; values = Frame.row frame i; predictions = [] } in
    if List.for_all (fun pass -> pass env i) pre_filter then
      kept := (i, Lazy.force env) :: !kept
  done;
  (* prediction with guardrail interception: surviving rows are gathered
     into a sub-frame (sharing the table's dictionaries, so the guard's
     bytecode is reused), vetted in one batch over the VM's violation
     bitmaps, repaired in one batch update, and predicted in one
     predict_frame call per target *)
  let envs =
    if not plan.Plan.uses_predict then List.map snd !kept
    else begin
      let idx = Array.of_list (List.map fst !kept) in
      rows_predicted := Array.length idx;
      let sub = Frame.take frame idx in
      let sub =
        match guard with
        | None -> sub
        | Some (compiled, strategy) ->
          let t0 = now () in
          let finish () = guardrail_s := !guardrail_s +. (now () -. t0) in
          (match Guardrail.Validator.handle ~strategy compiled sub with
           | repaired, vs ->
             violations := !violations + List.length vs;
             finish ();
             repaired
           | exception e ->
             finish ();
             raise e)
      in
      let t1 = now () in
      let preds =
        List.map
          (fun target ->
            (target, Mlmodel.Ensemble.predict_frame (find_model ctx target) sub))
          plan.Plan.predict_targets
      in
      inference_s := !inference_s +. (now () -. t1);
      List.init (Array.length idx) (fun j ->
          {
            schema;
            values = Frame.row sub j;
            predictions = List.map (fun (t, arr) -> (t, arr.(j))) preds;
          })
    end
  in
  (* post-filter *)
  let envs =
    List.filter
      (fun env -> List.for_all (fun e -> truthy (eval env e)) plan.Plan.post_filter)
      envs
  in
  let columns = List.mapi Plan.output_name plan.Plan.select in
  (* rows paired with their ORDER BY key values *)
  let keyed_rows =
    if plan.Plan.is_aggregate then begin
      (* group *)
      let groups : (Value.t list, env list) Hashtbl.t = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun env ->
          let key = List.map (fun e -> eval env e) plan.Plan.group_by in
          if not (Hashtbl.mem groups key) then order := key :: !order;
          Hashtbl.replace groups key
            (env :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        envs;
      (* deterministic group order so results align across runs *)
      let compare_keys a b =
        let rec go = function
          | x :: xs, y :: ys ->
            let c = Value.compare x y in
            if c <> 0 then c else go (xs, ys)
          | [], [] -> 0
          | [], _ -> -1
          | _, [] -> 1
        in
        go (a, b)
      in
      let keys = List.sort compare_keys (List.rev !order) in
      let keys = if plan.Plan.group_by = [] && keys = [] then [ [] ] else keys in
      List.map
        (fun key ->
          let group = List.rev (Option.value ~default:[] (Hashtbl.find_opt groups key)) in
          let row =
            Array.of_list
              (List.map
                 (fun (item : select_item) -> eval_agg group item.expr)
                 plan.Plan.select)
          in
          let order_values =
            List.map (fun (e, _) -> eval_agg group e) plan.Plan.order_by
          in
          (row, order_values))
        keys
    end
    else
      List.map
        (fun env ->
          let row =
            Array.of_list
              (List.map (fun (item : select_item) -> eval env item.expr) plan.Plan.select)
          in
          let order_values =
            List.map (fun (e, _) -> eval env e) plan.Plan.order_by
          in
          (row, order_values))
        envs
  in
  (* ORDER BY: lexicographic over the order expressions with per-key
     direction; stable sort keeps scan order for ties *)
  let keyed_rows =
    if plan.Plan.order_by = [] then keyed_rows
    else begin
      let directions = List.map snd plan.Plan.order_by in
      let compare_rows (_, a) (_, b) =
        let rec go vals_a vals_b dirs =
          match vals_a, vals_b, dirs with
          | [], [], _ -> 0
          | va :: ra, vb :: rb, asc :: rd ->
            let c = Value.compare va vb in
            if c <> 0 then (if asc then c else -c) else go ra rb rd
          | _ -> 0
        in
        go a b directions
      in
      List.stable_sort compare_rows keyed_rows
    end
  in
  let keyed_rows =
    match plan.Plan.limit with
    | Some k ->
      List.filteri (fun i _ -> i < k) keyed_rows
    | None -> keyed_rows
  in
  let rows = List.map fst keyed_rows in
  if Obs.Span.enabled () then begin
    Obs.Span.add_attr "rows" (string_of_int (List.length rows));
    Obs.Span.add_attr "violations" (string_of_int !violations);
    Obs.Span.add_attr "guardrail_ms" (Printf.sprintf "%.3f" (!guardrail_s *. 1e3));
    Obs.Span.add_attr "inference_ms" (Printf.sprintf "%.3f" (!inference_s *. 1e3))
  end;
  {
    columns;
    rows;
    stats =
      {
        rows_scanned = n;
        rows_predicted = !rows_predicted;
        violations = !violations;
        guardrail_s = !guardrail_s;
        inference_s = !inference_s;
      };
  }

(* Materialize a result as a frame: the paper's prototype has no native
   JOIN; joins are pre-computed into materialized views and queried as
   tables. Column kinds are sniffed from the cells. *)
let frame_of_result (r : result) =
  let numeric_col j =
    List.for_all
      (fun row ->
        match row.(j) with
        | Value.Int _ | Value.Float _ | Value.Null -> true
        | Value.Bool _ | Value.String _ -> false)
      r.rows
    && r.rows <> []
  in
  let cols =
    List.mapi
      (fun j name ->
        if numeric_col j then Dataframe.Schema.numeric name
        else Dataframe.Schema.categorical name)
      r.columns
  in
  Frame.of_rows (Dataframe.Schema.make cols) r.rows

(* Run a query now and register its result as a queryable table. *)
let register_view ctx name sql =
  let r = run ctx sql in
  register_table ctx name (frame_of_result r);
  r

(* Numeric vector view of a result (row-major over numeric cells), used by
   the Fig. 6 relative-error metric. *)
let numeric_vector r =
  let acc = ref [] in
  List.iter
    (fun row ->
      Array.iter
        (fun v -> match Value.to_float v with Some f -> acc := f :: !acc | None -> ())
        row)
    r.rows;
  Array.of_list (List.rev !acc)

let pp_result ppf r =
  Fmt.pf ppf "@[<v>%a@," Fmt.(list ~sep:(any " | ") string) r.columns;
  List.iter
    (fun row ->
      Fmt.pf ppf "%a@,"
        Fmt.(list ~sep:(any " | ") string)
        (Array.to_list (Array.map Value.to_string row)))
    r.rows;
  Fmt.pf ppf "@]"
