(* Equivalence of the planned evaluator with the naive reference.

   {!Eval.term} runs compiled plans over hash-indexed bags; [Eval.naive_*]
   keeps the obviously-correct semantics (full cross product, per-row
   condition scan, projection). These properties pin the two together on
   random views, signed databases (including negative counts), delta
   queries with literal slots, and fully-substituted literal-only queries
   — plus the deterministic workloads from [lib/workload], which every
   benchmark figure is computed over. *)

open Helpers
module R = Relational
module W = Workload

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let schemas = [| r1; r2; r3 |]

let qualified_cols (s : R.Schema.t) =
  List.map (fun c -> R.Attr.qualified s.R.Schema.name c) (R.Schema.attr_names s)

let view_gen =
  QCheck.Gen.(
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
        (Array.to_list schemas)
    in
    let cols = List.concat_map qualified_cols sources in
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj = List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols in
    let operand =
      let* use_col = bool in
      if use_col then
        let* i = int_bound (List.length cols - 1) in
        return (R.Predicate.Col (List.nth cols i))
      else
        let* n = int_bound 4 in
        return (R.Predicate.Const (R.Value.Int n))
    in
    let conjunct =
      let* cmp = oneofl R.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let* a = operand in
      let* b = operand in
      return (R.Predicate.Cmp (cmp, a, b))
    in
    let* n_conj = int_bound 2 in
    let* conjs = list_size (return n_conj) conjunct in
    return
      (R.View.natural_join ~name:"PV" ~extra_cond:(R.Predicate.conj conjs)
         ~proj sources))

(* Base relations hold duplicate (count > 1) tuples; negative counts are
   rejected by [Db], so the negative paths are exercised through negated
   query terms and delete deltas below. *)
let base_bag_gen =
  QCheck.Gen.(
    let tuple = map R.Tuple.ints (list_size (return 2) (int_bound 4)) in
    let counted =
      let* t = tuple in
      let* c = int_range 1 3 in
      return (t, c)
    in
    let* rows = list_size (int_bound 5) counted in
    return
      (List.fold_left
         (fun acc (t, count) -> R.Bag.add ~count t acc)
         R.Bag.empty rows))

let db_gen =
  QCheck.Gen.(
    let* b1 = base_bag_gen in
    let* b2 = base_bag_gen in
    let* b3 = base_bag_gen in
    return (R.Db.of_list [ (r1, b1); (r2, b2); (r3, b3) ]))

let update_gen =
  QCheck.Gen.(
    let* rel = oneofl [ "r1"; "r2"; "r3" ] in
    let* row = list_size (return 2) (int_bound 4) in
    let* insert = bool in
    let tup = R.Tuple.ints row in
    return
      (if insert then R.Update.insert rel tup else R.Update.delete rel tup))

let print_setup (view, db, _) =
  Format.asprintf "%a@.%a" R.View.pp view R.Db.pp db

let arb_setup =
  QCheck.make ~print:print_setup
    QCheck.Gen.(
      let* view = view_gen in
      let* db = db_gen in
      let* updates = list_size (int_range 1 3) update_gen in
      return (view, db, updates))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let agree db q = R.Bag.equal (R.Eval.query db q) (R.Eval.naive_query db q)

(* Planned view evaluation = naive reference; the negated difference
   query exercises negative result counts through both evaluators. *)
let view_equiv =
  QCheck.Test.make ~name:"planned view eval = naive reference" ~count:400
    arb_setup (fun (view, db, _) ->
      let q = R.Query.of_view view in
      agree db q && agree db (R.Query.minus R.Query.empty q))

(* Delta queries substitute a literal slot per update; their plans come
   from the same cache entry as the view's own term. *)
let delta_equiv =
  QCheck.Test.make ~name:"planned delta eval = naive reference" ~count:400
    arb_setup (fun (view, db, updates) ->
      List.for_all
        (fun u ->
          let delta = R.Query.view_delta view u in
          agree db delta && agree (R.Db.apply ~strict:false db u) delta)
        updates)

(* A literal-only term of [view], built the way compensation builds one:
   every source substituted by a random inserted or deleted tuple, and
   the whole term negated at random. Values come from a domain of four,
   so some rows pass the join keys and filters and some fail them. *)
let literal_term_gen (view : R.View.t) =
  QCheck.Gen.(
    let rec subst_all t = function
      | [] -> return t
      | (s : R.Schema.t) :: rest ->
        let* row = list_size (return 2) (int_bound 3) in
        let* insert = bool in
        let tup = R.Tuple.ints row in
        let u =
          if insert then R.Update.insert s.R.Schema.name tup
          else R.Update.delete s.R.Schema.name tup
        in
        subst_all (Option.get (R.Term.subst t u)) rest
    in
    let* t = subst_all (R.Term.of_view view) view.R.View.sources in
    let* neg = bool in
    return (if neg then R.Term.negate t else t))

(* Runs of terms from two views, switching skeleton midway and back, so
   the plan reused across a run must be looked up again at each switch. *)
let arb_literal =
  QCheck.make ~print:R.Query.to_string
    QCheck.Gen.(
      let* v1 = view_gen in
      let* v2 = view_gen in
      let* a = list_size (int_range 1 4) (literal_term_gen v1) in
      let* b = list_size (int_range 1 4) (literal_term_gen v2) in
      let* c = list_size (int_bound 3) (literal_term_gen v1) in
      return (R.Query.of_terms (a @ b @ c)))

(* The warehouse evaluates literal-only terms without a database. *)
let literal_equiv =
  QCheck.Test.make ~name:"literal-only eval = naive reference" ~count:300
    arb_literal (fun q ->
      let naive = R.Eval.naive_query R.Db.empty q in
      R.Bag.equal (R.Eval.literal_query q) naive
      && R.Bag.equal (fst (R.Eval.split_local q)) naive
      && List.for_all
           (fun t ->
             R.Bag.equal (R.Eval.literal_query [ t ])
               (R.Eval.naive_term R.Db.empty t))
           (R.Query.terms q))

(* The one-row evaluator's cases, each pinned: a row that joins and
   passes the filter, one that fails a join key, one that fails the
   filter, negative literals and a negated term, on 3-slot terms with a
   2-slot term of another skeleton in between. *)
let literal_rows () =
  let v3 =
    R.View.natural_join ~name:"V3"
      ~extra_cond:(R.Parser.parse_predicate "r1.W >= 2")
      ~proj:[ R.Attr.unqualified "W" ] [ r1; r2; r3 ]
  in
  let v2 = view_w () in
  let lit view us =
    List.fold_left
      (fun t u -> Option.get (R.Term.subst t u))
      (R.Term.of_view view) us
  in
  let pass =
    lit v3 [ ins "r1" [ 3; 1 ]; ins "r2" [ 1; 2 ]; ins "r3" [ 2; 5 ] ]
  in
  let join_fail =
    lit v3 [ ins "r1" [ 3; 1 ]; ins "r2" [ 0; 2 ]; ins "r3" [ 2; 5 ] ]
  in
  let filter_fail =
    lit v3 [ ins "r1" [ 1; 1 ]; ins "r2" [ 1; 2 ]; ins "r3" [ 2; 5 ] ]
  in
  let neg_lit =
    lit v3 [ ins "r1" [ 4; 1 ]; del "r2" [ 1; 2 ]; ins "r3" [ 2; 5 ] ]
  in
  let other = lit v2 [ ins "r1" [ 7; 1 ]; del "r2" [ 1; 2 ] ] in
  let q =
    R.Query.of_terms
      [ pass; join_fail; other; filter_fail; neg_lit; R.Term.negate pass;
        R.Term.negate neg_lit; neg_lit ]
  in
  let expected =
    R.Bag.add ~count:(-1) (R.Tuple.ints [ 7 ])
      (R.Bag.add ~count:(-1) (R.Tuple.ints [ 4 ]) R.Bag.empty)
  in
  check_bag "one-row evaluation" expected (R.Eval.literal_query q);
  check_bag "naive reference" expected (R.Eval.naive_query R.Db.empty q);
  check_bag "split_local's local part" expected (fst (R.Eval.split_local q));
  check_bag "a failed join yields nothing" R.Bag.empty
    (R.Eval.literal_query [ join_fail ]);
  check_bag "a failed filter yields nothing" R.Bag.empty
    (R.Eval.literal_query [ filter_fail ]);
  Alcotest.check_raises "a base slot is refused"
    (R.Eval.Eval_error "literal_query: term still references base relations")
    (fun () -> ignore (R.Eval.literal_query [ pass; R.Term.of_view v3 ]))

(* The deterministic generator behind every benchmark figure. *)
let workload_equiv () =
  List.iter
    (fun (c, k, skew, seed) ->
      let spec = W.Spec.make ~c ~j:4 ~k_updates:k ~seed ~skew () in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let q = R.Query.of_view view in
      Alcotest.(check bool)
        (Printf.sprintf "example6 c=%d k=%d skew=%.1f" c k skew)
        true
        (agree db q
        && List.for_all
             (fun u -> agree db (R.Query.view_delta view u))
             updates
        && agree (R.Db.apply_all db updates) q))
    [
      (20, 5, 0.0, 42);
      (50, 10, 0.0, 7);
      (50, 10, 1.0, 7);
      (100, 5, 0.5, 1);
    ];
  let spec = W.Spec.make ~c:50 ~j:4 ~k_updates:10 ~insert_ratio:0.5 ~seed:3 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.keyed spec in
  Alcotest.(check bool)
    "keyed scenario" true
    (agree db (R.Query.of_view view)
    && List.for_all
         (fun u -> agree db (R.Query.view_delta view u))
         updates)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ view_equiv; delta_equiv; literal_equiv ]
  @ [
      Alcotest.test_case "workload instances" `Quick workload_equiv;
      Alcotest.test_case "literal rows: join, filter, sign, skeleton" `Quick
        literal_rows;
    ]
