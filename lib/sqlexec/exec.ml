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

let rec eval env = function
  | Lit v -> v
  | Col name ->
    (match Dataframe.Schema.index_opt env.schema name with
     | Some i -> env.values.(i)
     | None -> raise (Runtime_error (Printf.sprintf "unknown column %S" name)))
  | Predict target ->
    (match List.assoc_opt target env.predictions with
     | Some v -> v
     | None -> raise (Runtime_error (Printf.sprintf "no prediction for %S" target)))
  | Cmp (op, a, b) ->
    let va = eval env a and vb = eval env b in
    cmp_values op va vb
  | Arith (op, a, b) ->
    let va = eval env a and vb = eval env b in
    arith_values op va vb
  | And (a, b) -> Value.Bool (truthy (eval env a) && truthy (eval env b))
  | Or (a, b) -> Value.Bool (truthy (eval env a) || truthy (eval env b))
  | Not e -> Value.Bool (not (truthy (eval env e)))
  | Case (whens, else_) ->
    let rec go = function
      | (cond, v) :: rest -> if truthy (eval env cond) then eval env v else go rest
      | [] -> (match else_ with Some e -> eval env e | None -> Value.Null)
    in
    go whens
  | Agg _ -> raise (Runtime_error "aggregate outside aggregation context")

(* Aggregate evaluation over a group of environments. Aggregates may be
   nested inside arithmetic and comparisons, which combine their operands'
   values directly, so they also evaluate over an empty group; group-key
   expressions evaluate on the group's representative row. *)
let rec eval_agg group (group_keys : (expr * Value.t) list) e =
  match e with
  | Agg (fn, arg) ->
    let values =
      match arg with
      | None -> List.map (fun _ -> Value.Int 1) group
      | Some a -> List.map (fun env -> eval env a) group
    in
    let numerics =
      List.filter_map (fun v -> if Value.is_null v then None else Value.to_float v) values
    in
    (match fn with
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
        | v :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v rest))
  | _ ->
    (* group key? evaluate on the representative row *)
    (match List.find_opt (fun (k, _) -> k = e) group_keys with
     | Some (_, v) -> v
     | None ->
       (match e with
        | Lit v -> v
        | Cmp (op, a, b) ->
          let va = eval_agg group group_keys a in
          let vb = eval_agg group group_keys b in
          cmp_values op va vb
        | Arith (op, a, b) ->
          let va = eval_agg group group_keys a in
          let vb = eval_agg group group_keys b in
          arith_values op va vb
        | Case _ | Col _ | Predict _ | And _ | Or _ | Not _ ->
          (* fall back: evaluate on the representative row *)
          (match group with
           | env :: _ -> eval env e
           | [] -> Value.Null)
        | Agg _ -> assert false))

let find_table ctx name =
  match Hashtbl.find_opt ctx.tables name with
  | Some f -> f
  | None -> raise (Runtime_error (Printf.sprintf "unknown table %S" name))

let find_model ctx target =
  match Hashtbl.find_opt ctx.models target with
  | Some m -> m
  | None -> raise (Runtime_error (Printf.sprintf "no model registered for %S" target))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* WHERE-guard offload: column-vs-literal conjuncts lower to the VM's
   bitmap prefilter ({!Vm.Lower.filter}) when that path provably agrees
   with [eval]'s semantics. [eval] compares values with [Value.compare],
   which ranks across constructors (Bool < numeric < String) and aliases
   Int/Float numerically; the VM compares dictionary codes (equality) or
   column float images (ranges). The two agree exactly when:

   - equality on a String/Bool literal: dictionary codes are structural,
     and cross-constructor ranks never compare equal;
   - equality or a range on an Int/Float literal over a column whose
     dictionary holds only Int/Float/Null: NULL cells fail both paths
     ([eval] short-circuits a NULL operand to false, the VM maps it to
     NaN which fails every range), and numeric cells compare numerically
     on both. Numeric equality lowers as a degenerate BETWEEN so Int 1
     matches a Float 1.0 cell, exactly like [Value.compare];
   - [<] and [<=] additionally require the dictionary to be NaN-free:
     OCaml's [Float.compare] totalizes NaN below every number, so eval
     accepts [x < k] for a NaN cell where the VM's NaN-fails-ranges
     kernel rejects it. ([>], [>=] and [=] reject NaN on both paths.)

   Anything else (NULL literals, <>, mixed-type columns, compound
   expressions) stays on the residual eval path. *)

let numeric_only_dict frame col =
  Array.for_all
    (function
      | Value.Int _ | Value.Float _ | Value.Null -> true
      | Value.Bool _ | Value.String _ -> false)
    (Dataframe.Column.dict (Frame.column frame col))

let nan_free_numeric_dict frame col =
  Array.for_all
    (function
      | Value.Int _ | Value.Null -> true
      | Value.Float f -> not (Float.is_nan f)
      | Value.Bool _ | Value.String _ -> false)
    (Dataframe.Column.dict (Frame.column frame col))

let guard_of_conjunct frame schema e =
  let col_lit = function
    | Cmp (op, Col c, Lit v) -> Some (op, c, v)
    | Cmp (op, Lit v, Col c) ->
      let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | o -> o in
      Some (flip op, c, v)
    | _ -> None
  in
  match col_lit e with
  | None -> None
  | Some (op, name, v) ->
    (match Dataframe.Schema.index_opt schema name with
     | None -> None
     | Some col ->
       (match op, v with
        | Eq, (Value.String _ | Value.Bool _) ->
          Some (col, Vm.Lower.Guard_eq v)
        | Eq, (Value.Int _ | Value.Float _) when numeric_only_dict frame col ->
          let f = Option.get (Value.to_float v) in
          Some (col, Vm.Lower.Guard_between (f, f))
        | (Gt | Ge), (Value.Int _ | Value.Float _)
          when numeric_only_dict frame col ->
          let f = Option.get (Value.to_float v) in
          Some (col, if op = Gt then Vm.Lower.Guard_gt f else Vm.Lower.Guard_ge f)
        | (Lt | Le), (Value.Int _ | Value.Float _)
          when nan_free_numeric_dict frame col ->
          let f = Option.get (Value.to_float v) in
          Some (col, if op = Lt then Vm.Lower.Guard_lt f else Vm.Lower.Guard_le f)
        | _ -> None))

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
  (* scan + pre-filter: offloadable conjuncts run as one VM bitmap pass
     over the columnar data; only surviving rows are materialized and
     checked against the residual conjuncts *)
  let guards, residual =
    List.partition_map
      (fun e ->
        match guard_of_conjunct frame schema e with
        | Some g -> Left g
        | None -> Right e)
      plan.Plan.pre_filter
  in
  let prefilter =
    match guards with
    | [] -> None
    | gs -> Some (Vm.Exec.run (Vm.Lower.filter frame gs) frame).Vm.Exec.any
  in
  let kept = ref [] in
  for i = n - 1 downto 0 do
    let pass =
      match prefilter with None -> true | Some bm -> Vm.Bitmap.get bm i
    in
    if pass then begin
      let values = Frame.row frame i in
      let env0 = { schema; values; predictions = [] } in
      if List.for_all (fun e -> truthy (eval env0 e)) residual then
        kept := (i, env0) :: !kept
    end
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
          let group_keys = List.combine plan.Plan.group_by key in
          let row =
            Array.of_list
              (List.map
                 (fun (item : select_item) -> eval_agg group group_keys item.expr)
                 plan.Plan.select)
          in
          let order_values =
            List.map (fun (e, _) -> eval_agg group group_keys e) plan.Plan.order_by
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
