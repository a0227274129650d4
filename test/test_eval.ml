(* The logical evaluator: unit cases over the paper's examples plus a
   qcheck equivalence against a brute-force reference evaluator (plain
   cross product + filter + project), which exercises the hash-join paths
   against ground truth. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let eval_view_simple () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 4 ] ]) ] in
  check_bag "π_W (r1 ⋈ r2)" (bag [ [ 1 ] ]) (R.Eval.view db (view_w ()))

let eval_view_duplicates () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 4 ]; [ 2; 3 ] ]) ] in
  check_bag "projection keeps duplicates"
    (bag [ [ 1 ]; [ 1 ] ])
    (R.Eval.view db (view_w ()))

let eval_three_way_join () =
  let db =
    db_of
      [
        (r1, [ [ 1; 2 ]; [ 4; 2 ] ]);
        (r2, [ [ 2; 5 ] ]);
        (r3, [ [ 5; 3 ] ]);
      ]
  in
  check_bag "π_W (r1 ⋈ r2 ⋈ r3)"
    (bag [ [ 1 ]; [ 4 ] ])
    (R.Eval.view db (view_w3 ()))

let eval_condition () =
  let v =
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "r1.W > r2.Y")
      ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
      [ r1; r2 ]
  in
  let db = db_of [ (r1, [ [ 9; 2 ]; [ 1; 2 ] ]); (r2, [ [ 2; 4 ] ]) ] in
  check_bag "residual condition filters"
    (bag [ [ 9; 4 ] ])
    (R.Eval.view db v)

let eval_signed_literal () =
  let db = db_of [ (r1, []); (r2, [ [ 2; 3 ] ]) ] in
  let q = R.Query.view_delta (view_w ()) (del "r1" [ 1; 2 ]) in
  let a = R.Eval.query db q in
  check_int "minus sign carries through the join" (-1)
    (R.Bag.count a (R.Tuple.ints [ 1 ]))

let eval_negative_base_counts () =
  (* A base bag with a negative count behaves like a deleted tuple. *)
  let contents = R.Bag.add ~count:(-1) (R.Tuple.ints [ 1; 2 ]) R.Bag.empty in
  let db =
    R.Db.empty
    |> fun db -> R.Db.add_relation db r1
    |> fun db -> R.Db.add_relation ~contents:(bag [ [ 2; 3 ] ]) db r2
  in
  (* Negative base relations are rejected at load; emulate via a literal
     term instead. *)
  ignore contents;
  let term =
    {
      R.Term.sign = R.Sign.Pos;
      proj = [ R.Attr.qualified "r1" "W" ];
      cond = R.Predicate.eq_attrs "r1.X" "r2.X";
      slots =
        [
          R.Term.Lit (r1, R.Sign.Neg, R.Tuple.ints [ 1; 2 ]);
          R.Term.Base r2;
        ];
    }
  in
  check_int "literal with minus sign yields negative result" (-1)
    (R.Bag.count (R.Eval.term db term) (R.Tuple.ints [ 1 ]))

let eval_term_sign () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let t = R.Term.of_view (view_w ()) in
  let a = R.Eval.term db (R.Term.negate t) in
  check_int "negated term negates its result" (-1)
    (R.Bag.count a (R.Tuple.ints [ 1 ]))

let eval_query_sums_terms () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let t = R.Term.of_view (view_w ()) in
  let q = [ t; R.Term.negate t ] in
  check_bag "T + (-T) = 0" R.Bag.empty (R.Eval.query db q)

let eval_constant_condition () =
  let v =
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "1 > 2")
      ~proj:[ R.Attr.unqualified "W" ]
      [ r1; r2 ]
  in
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  check_bag "statically false condition" R.Bag.empty (R.Eval.view db v)

let eval_cross_product () =
  (* No join condition at all: a plain cross product. *)
  let v =
    R.View.make ~name:"X"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r2" "Y" ]
      ~cond:R.Predicate.True [ r1; r2 ]
  in
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 4; 5 ] ]); (r2, [ [ 7; 8 ] ]) ] in
  check_bag "cross product"
    (bag [ [ 1; 8 ]; [ 4; 8 ] ])
    (R.Eval.view db v)

let eval_literal_term_requires_no_base () =
  let t = R.Term.of_view (view_w ()) in
  Alcotest.check_raises "literal_query rejects base slots"
    (R.Eval.Eval_error "literal_query: term still references base relations")
    (fun () -> ignore (R.Eval.literal_query [ t ]))

(* ------------------------------------------------------------------ *)
(* Reference-evaluator equivalence                                     *)
(* ------------------------------------------------------------------ *)

(* Brute force: expand every slot into signed copies, take the full cross
   product, filter with Predicate.eval over an association environment,
   and project. No hash joins, no short cuts. *)
let reference_term db (t : R.Term.t) =
  let slot_rows slot =
    let schema = R.Term.slot_schema slot in
    let contents =
      match slot with
      | R.Term.Base s -> R.Db.contents db s.R.Schema.name
      | R.Term.Lit (_, g, tup) -> R.Bag.singleton ~count:(R.Sign.to_int g) tup
    in
    R.Bag.fold
      (fun tup n acc -> (schema, tup, n) :: acc)
      contents []
  in
  let rec cross = function
    | [] -> [ ([], 1) ]
    | slot :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun (schema, tup, n) ->
          List.map
            (fun (env, c) -> ((schema, tup) :: env, n * c))
            tails)
        (slot_rows slot)
  in
  let lookup env (a : R.Attr.t) =
    let candidates =
      List.filter_map
        (fun ((s : R.Schema.t), tup) ->
          match a.R.Attr.rel with
          | Some rel when not (String.equal rel s.R.Schema.name) -> None
          | _ ->
            Option.map (fun i -> R.Tuple.get tup i)
              (R.Schema.column_index s a.R.Attr.name))
        env
    in
    match candidates with
    | [ v ] -> v
    | _ -> Alcotest.failf "reference lookup: %s" (R.Attr.to_string a)
  in
  List.fold_left
    (fun acc (env, count) ->
      if R.Predicate.eval (lookup env) t.R.Term.cond then
        let out = R.Tuple.of_list (List.map (lookup env) t.R.Term.proj) in
        R.Bag.add ~count:(count * R.Sign.to_int t.R.Term.sign) out acc
      else acc)
    R.Bag.empty (cross t.R.Term.slots)

let reference_query db q =
  List.fold_left
    (fun acc t -> R.Bag.plus acc (reference_term db t))
    R.Bag.empty (R.Query.terms q)

let tuple2_gen range =
  QCheck.Gen.(map R.Tuple.ints (list_size (return 2) (int_bound range)))

let db_gen =
  QCheck.Gen.(
    let* rows1 = list_size (int_bound 7) (tuple2_gen 4) in
    let* rows2 = list_size (int_bound 7) (tuple2_gen 4) in
    let* rows3 = list_size (int_bound 7) (tuple2_gen 4) in
    return
      (R.Db.of_list
         [
           (r1, R.Bag.of_list rows1);
           (r2, R.Bag.of_list rows2);
           (r3, R.Bag.of_list rows3);
         ]))

let query_gen =
  QCheck.Gen.(
    let* db = db_gen in
    let base = R.Query.of_view (view_w3 ()) in
    let* n_subst = int_bound 2 in
    let* updates =
      list_size (return n_subst)
        (let* rel = oneofl [ "r1"; "r2"; "r3" ] in
         let* tup = tuple2_gen 4 in
         let* insert = bool in
         return
           (if insert then R.Update.insert rel tup
            else R.Update.delete rel tup))
    in
    let q =
      List.fold_left
        (fun acc u -> R.Query.minus acc (R.Query.subst acc u))
        base updates
    in
    return (db, q))

let arb_db_query =
  QCheck.make
    ~print:(fun (db, q) -> Format.asprintf "%a@.%a" R.Db.pp db R.Query.pp q)
    query_gen

let equiv_reference =
  QCheck.Test.make ~name:"hash-join evaluator matches brute force" ~count:200
    arb_db_query (fun (db, q) ->
      R.Bag.equal (R.Eval.query db q) (reference_query db q))

let suite =
  [
    Alcotest.test_case "two-way join" `Quick eval_view_simple;
    Alcotest.test_case "duplicates retained" `Quick eval_view_duplicates;
    Alcotest.test_case "three-way join" `Quick eval_three_way_join;
    Alcotest.test_case "residual condition" `Quick eval_condition;
    Alcotest.test_case "signed literals" `Quick eval_signed_literal;
    Alcotest.test_case "negative literal counts" `Quick
      eval_negative_base_counts;
    Alcotest.test_case "term-level sign" `Quick eval_term_sign;
    Alcotest.test_case "query sums terms" `Quick eval_query_sums_terms;
    Alcotest.test_case "statically false condition" `Quick
      eval_constant_condition;
    Alcotest.test_case "cross product without condition" `Quick
      eval_cross_product;
    Alcotest.test_case "literal_term guards" `Quick
      eval_literal_term_requires_no_base;
  ]
  @ [ QCheck_alcotest.to_alcotest equiv_reference ]
