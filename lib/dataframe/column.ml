(* Dictionary-encoded column.

   Every distinct value in the column gets a small integer code; the cells
   are stored as a code array. All of GUARDRAIL's statistics (contingency
   tables, partitions, auxiliary-distribution sampling) run over the code
   arrays, which keeps the hot loops allocation-free. *)

type t = {
  codes : int array;            (* cell -> code *)
  dict : Value.t array;         (* code -> value *)
  index : (Value.t, int) Hashtbl.t;  (* value -> code *)
}

let length t = Array.length t.codes
let cardinality t = Array.length t.dict
let code t i = t.codes.(i)
let value_of_code t c = t.dict.(c)
let get t i = t.dict.(t.codes.(i))
let codes t = t.codes
let dict t = t.dict

let code_of_value t v = Hashtbl.find_opt t.index v

let of_values values =
  let n = Array.length values in
  let index = Hashtbl.create 64 in
  let rev = ref [] in
  let next = ref 0 in
  let codes =
    Array.map
      (fun v ->
        match Hashtbl.find_opt index v with
        | Some c -> c
        | None ->
          let c = !next in
          incr next;
          Hashtbl.add index v c;
          rev := v :: !rev;
          c)
      values
  in
  let dict = Array.of_list (List.rev !rev) in
  assert (Array.length dict = !next);
  ignore n;
  { codes; dict; index }

let of_list values = of_values (Array.of_list values)

let of_encoded ~codes ~dict ~index = { codes; dict; index }

let to_values t = Array.map (fun c -> t.dict.(c)) t.codes

(* Functional single-cell update; re-encodes only when the new value is not
   yet in the dictionary. *)
let set t i v =
  match Hashtbl.find_opt t.index v with
  | Some c ->
    let codes = Array.copy t.codes in
    codes.(i) <- c;
    { t with codes }
  | None ->
    let c = Array.length t.dict in
    let dict = Array.append t.dict [| v |] in
    let index = Hashtbl.copy t.index in
    Hashtbl.add index v c;
    let codes = Array.copy t.codes in
    codes.(i) <- c;
    { codes; dict; index }

(* Batch update: one code-array copy for the whole change list, the
   index copied only if some value is genuinely new. *)
let update t changes =
  match changes with
  | [] -> t
  | changes ->
    let codes = Array.copy t.codes in
    let index = ref t.index in
    let fresh = ref [] in
    let next = ref (Array.length t.dict) in
    List.iter
      (fun (i, v) ->
        let c =
          match Hashtbl.find_opt !index v with
          | Some c -> c
          | None ->
            if !index == t.index then index := Hashtbl.copy t.index;
            let c = !next in
            Hashtbl.add !index v c;
            fresh := v :: !fresh;
            incr next;
            c
        in
        codes.(i) <- c)
      changes;
    let dict =
      match !fresh with
      | [] -> t.dict
      | fresh -> Array.append t.dict (Array.of_list (List.rev fresh))
    in
    { codes; dict; index = !index }

(* Keep only the rows whose index satisfies [keep]; dictionary is preserved
   as-is (codes of dropped values simply become unused). *)
let select t keep =
  let n = Array.length t.codes in
  let scratch = Array.make n 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      scratch.(!m) <- t.codes.(i);
      incr m
    end
  done;
  { t with codes = Array.sub scratch 0 !m }

let take t indices =
  let codes = Array.map (fun i -> t.codes.(i)) indices in
  { t with codes }

(* Re-encode [b]'s cells against [a]'s dictionary; new values are
   collected in a reversed list and appended to the dictionary once
   (the old per-value [dict @ [v]] was quadratic in new values). *)
let append a b =
  let nb = Array.length b.codes in
  let codes_b = Array.make nb 0 in
  let index = Hashtbl.copy a.index in
  let fresh = ref [] in
  let next = ref (Array.length a.dict) in
  for i = 0 to nb - 1 do
    let v = b.dict.(b.codes.(i)) in
    match Hashtbl.find_opt index v with
    | Some c -> codes_b.(i) <- c
    | None ->
      Hashtbl.add index v !next;
      fresh := v :: !fresh;
      codes_b.(i) <- !next;
      incr next
  done;
  let dict =
    match !fresh with
    | [] -> a.dict
    | fresh -> Array.append a.dict (Array.of_list (List.rev fresh))
  in
  { codes = Array.append a.codes codes_b; dict; index }

let counts t =
  let k = cardinality t in
  let c = Array.make k 0 in
  Array.iter (fun code -> c.(code) <- c.(code) + 1) t.codes;
  c

let mode t =
  if length t = 0 then None
  else begin
    let c = counts t in
    let best = ref 0 in
    Array.iteri (fun i n -> if n > c.(!best) then best := i) c;
    Some t.dict.(!best)
  end
