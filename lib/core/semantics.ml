(* Denotational semantics of the DSL (paper Fig. 2) plus the quantitative
   notions built on it: the 0/1 branch loss (Eqn. 2), ε-validity (Eqn. 3-4)
   and coverage (Eqn. 5-6).

   A program state is a row of the dataframe; [[p]]_t executes every
   statement on t and returns the updated row. Range atoms generalize the
   paper's equality tests: a condition atom holds when the cell satisfies
   its test, and executing a range assignment clamps the cell to the
   closest in-range value ([Domain.rectify]) instead of overwriting it. *)

open Dsl

module Value = Dataframe.Value
module Frame = Dataframe.Frame
module Domain = Dataframe.Domain

(* Does the row satisfy the condition? *)
let condition_holds frame row (c : condition) =
  List.for_all
    (fun { attr; test } -> Domain.atom_holds test (Frame.get frame row attr))
    c

let condition_holds_values values (c : condition) =
  List.for_all (fun { attr; test } -> Domain.atom_holds test values.(attr)) c

(* [[s]]_t: branch conditions of one statement are mutually exclusive by
   construction (distinct determinant-value combinations), so at most one
   fires. *)
let eval_stmt values (s : stmt) =
  let rec go = function
    | [] -> values
    | b :: rest ->
      if condition_holds_values values b.condition then begin
        let out = Array.copy values in
        out.(s.on) <- Domain.rectify b.assignment out.(s.on);
        out
      end
      else go rest
  in
  go s.branches

(* [[p]]_t. *)
let eval_prog (p : prog) values = List.fold_left eval_stmt values p.stmts

(* L(b, D): rows matching the condition whose dependent value fails the
   branch assignment test (Eqn. 2). Returns (loss, support). *)
let branch_loss frame (s : stmt) (b : branch) =
  let loss = ref 0 and support = ref 0 in
  let n = Frame.nrows frame in
  for i = 0 to n - 1 do
    if condition_holds frame i b.condition then begin
      incr support;
      if not (Domain.atom_holds b.assignment (Frame.get frame i s.on)) then
        incr loss
    end
  done;
  (!loss, !support)

(* Eqn. 3: every branch loss within epsilon of its support. *)
let branch_epsilon_valid frame s b ~epsilon =
  let loss, support = branch_loss frame s b in
  float_of_int loss <= float_of_int support *. epsilon

let stmt_epsilon_valid frame (s : stmt) ~epsilon =
  List.for_all (fun b -> branch_epsilon_valid frame s b ~epsilon) s.branches

let prog_epsilon_valid frame (p : prog) ~epsilon =
  List.for_all (fun s -> stmt_epsilon_valid frame s ~epsilon) p.stmts

(* cov(b, D) = |D^b| / |D| (Eqn. 5). *)
let branch_coverage frame (b : branch) =
  let n = Frame.nrows frame in
  if n = 0 then 0.0
  else begin
    let support = ref 0 in
    for i = 0 to n - 1 do
      if condition_holds frame i b.condition then incr support
    done;
    float_of_int !support /. float_of_int n
  end

(* cov(s, D) = Σ_b cov(b, D) (Eqn. 6); branches are disjoint so this is
   |D^s| / |D|. *)
let stmt_coverage frame (s : stmt) =
  List.fold_left (fun acc b -> acc +. branch_coverage frame b) 0.0 s.branches

(* Program coverage: average statement coverage (paper §2.2). Empty
   programs cover nothing. *)
let prog_coverage frame (p : prog) =
  match p.stmts with
  | [] -> 0.0
  | stmts ->
    List.fold_left (fun acc s -> acc +. stmt_coverage frame s) 0.0 stmts
    /. float_of_int (List.length stmts)

(* Total loss of a statement over the frame. *)
let stmt_loss frame (s : stmt) =
  List.fold_left (fun acc b -> acc + fst (branch_loss frame s b)) 0 s.branches

let prog_loss frame (p : prog) =
  List.fold_left (fun acc s -> acc + stmt_loss frame s) 0 p.stmts
