(* Property tests over randomly generated VIEW DEFINITIONS — random
   subsets of base relations, random projections and random conditions —
   not just the fixed chain view. This is the strongest executable form of
   Theorem B.1: for arbitrary SPJ views, arbitrary applicable update
   streams and arbitrary interleavings, ECA is strongly consistent and
   ends at the true view. *)

open Helpers
module R = Relational

(* ------------------------------------------------------------------ *)
(* Random view generator                                               *)
(* ------------------------------------------------------------------ *)

let schemas = [| r1; r2; r3 |]

let qualified_cols (s : R.Schema.t) =
  List.map (fun c -> R.Attr.qualified s.R.Schema.name c) (R.Schema.attr_names s)

let view_gen =
  QCheck.Gen.(
    (* pick a non-empty subset of the three relations, in order *)
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
        (Array.to_list schemas)
    in
    let cols = List.concat_map qualified_cols sources in
    (* random non-empty projection *)
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj =
      List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols
    in
    (* random condition: 0-2 conjuncts of comparisons between random
       columns / small constants *)
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
      let* cmp =
        oneofl
          R.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ]
      in
      let* a = operand in
      let* b = operand in
      return (R.Predicate.Cmp (cmp, a, b))
    in
    let* n_conj = int_bound 2 in
    let* conjs = list_size (return n_conj) conjunct in
    (* join same-named columns across the chosen relations, plus extras *)
    let view =
      R.View.natural_join ~name:"RV"
        ~extra_cond:(R.Predicate.conj conjs)
        ~proj sources
    in
    return view)

let setup_gen =
  QCheck.Gen.(
    let tuple_gen = map R.Tuple.ints (list_size (return 2) (int_bound 4)) in
    let* view = view_gen in
    let* rows1 = list_size (int_bound 4) tuple_gen in
    let* rows2 = list_size (int_bound 4) tuple_gen in
    let* rows3 = list_size (int_bound 4) tuple_gen in
    let db =
      R.Db.of_list
        [
          (r1, R.Bag.of_list rows1);
          (r2, R.Bag.of_list rows2);
          (r3, R.Bag.of_list rows3);
        ]
    in
    let* n = int_range 1 5 in
    let* raw =
      list_size (return n)
        (pair (oneofl [ "r1"; "r2"; "r3" ]) (pair tuple_gen bool))
    in
    let _, updates =
      List.fold_left
        (fun (db, acc) (rel, (tup, want_insert)) ->
          let u =
            if want_insert || R.Bag.count (R.Db.contents db rel) tup <= 0 then
              R.Update.insert rel tup
            else R.Update.delete rel tup
          in
          (R.Db.apply db u, u :: acc))
        (db, []) raw
    in
    let* seed = int_bound 100_000 in
    return (view, db, List.rev updates, seed))

let arb_setup =
  QCheck.make
    ~print:(fun (view, db, updates, seed) ->
      Format.asprintf "%a@.%a@.updates: %s@.seed=%d" R.View.pp view R.Db.pp db
        (String.concat "; " (List.map R.Update.to_string updates))
        seed)
    setup_gen

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let check_algorithm ~wants_complete algorithm (view, db, updates, seed) =
  let expected = R.Eval.view (R.Db.apply_all db updates) view in
  List.for_all
    (fun schedule ->
      let result =
        run ~algorithm ~schedule ~views:[ view ] ~db ~updates ()
      in
      let report = List.assoc "RV" result.Core.Engine.reports in
      let level =
        if wants_complete then report.Core.Consistency.complete
        else report.Core.Consistency.strongly_consistent
      in
      level
      && R.Bag.equal expected (List.assoc "RV" result.Core.Engine.final_mvs))
    [
      Core.Scheduler.Best_case;
      Core.Scheduler.Worst_case;
      Core.Scheduler.Random seed;
    ]

let count = 150

let eca_random_views =
  QCheck.Test.make ~name:"ECA strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "eca")

let lca_random_views =
  QCheck.Test.make ~name:"LCA complete on random views" ~count arb_setup
    (check_algorithm ~wants_complete:true "lca")

let sc_random_views =
  QCheck.Test.make ~name:"SC complete on random views" ~count arb_setup
    (check_algorithm ~wants_complete:true "sc")

let rv_random_views =
  QCheck.Test.make ~name:"RV strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "rv")

let ecal_random_views =
  QCheck.Test.make ~name:"ECAL strongly consistent on random views" ~count
    arb_setup
    (check_algorithm ~wants_complete:false "eca-local")

let eca_batched_random_views =
  QCheck.Test.make ~name:"batched ECA correct on random views" ~count:80
    arb_setup (fun (view, db, updates, seed) ->
      let expected = R.Eval.view (R.Db.apply_all db updates) view in
      List.for_all
        (fun batch_size ->
          let result =
            Core.Engine.run ~schedule:(Core.Scheduler.Random seed) ~batch_size
              ~creator:(Core.Registry.creator_exn "eca")
              ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
          in
          let report = List.assoc "RV" result.Core.Engine.reports in
          report.Core.Consistency.strongly_consistent
          && R.Bag.equal expected (List.assoc "RV" result.Core.Engine.final_mvs))
        [ 2; 4 ])

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      eca_random_views;
      lca_random_views;
      sc_random_views;
      rv_random_views;
      ecal_random_views;
      eca_batched_random_views;
    ]
