(* Views with union and difference (the Section 7 extension): the signed
   delta operator is linear over compound definitions, so every
   compensating algorithm maintains them unchanged. These tests check the
   algebra, the maintenance under adversarial schedules, and a qcheck
   property over random streams. *)

open Helpers
module R = Relational

(* Two SPJ blocks over the chain schema with a common output shape. *)
let block_a =
  R.View.make ~name:"U" ~proj:[ R.Attr.qualified "r1" "W" ]
    ~cond:R.Predicate.True [ r1 ]

let block_b =
  R.View.natural_join ~name:"U#1" ~proj:[ R.Attr.qualified "r1" "W" ]
    [ r1; r2 ]

let block_c =
  R.View.make ~name:"U#2" ~proj:[ R.Attr.qualified "r1" "W" ]
    ~cond:(R.Parser.parse_predicate "X > 5")
    [ r1 ]

let union_view =
  R.Viewdef.make ~name:"U"
    [ (R.Sign.Pos, block_a); (R.Sign.Pos, block_b) ]

let diff_view =
  R.Viewdef.make ~name:"U"
    [ (R.Sign.Pos, block_a); (R.Sign.Neg, block_c) ]

(* ------------------------------------------------------------------ *)
(* Algebra                                                             *)
(* ------------------------------------------------------------------ *)

let eval_union_and_diff () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 3; 9 ] ]); (r2, [ [ 2; 0 ] ]) ] in
  (* union: all W from r1 plus the joined ones again (bag union) *)
  check_bag "union adds multiplicities"
    (bag [ [ 1 ]; [ 1 ]; [ 3 ] ])
    (R.Viewdef.eval db union_view);
  (* difference: all W minus those with X > 5 *)
  check_bag "difference subtracts"
    (bag [ [ 1 ] ])
    (R.Viewdef.eval db diff_view)

let delta_linearity () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 0 ] ]) ] in
  let u = ins "r1" [ 7; 9 ] in
  let db' = R.Db.apply db u in
  List.iter
    (fun vd ->
      let before = R.Viewdef.eval db vd in
      let after = R.Viewdef.eval db' vd in
      let delta = R.Eval.query db' (R.Viewdef.delta vd u) in
      check_bag
        (vd.R.Viewdef.name ^ " delta = after - before")
        (R.Bag.minus after before)
        delta)
    [ union_view; diff_view; R.Viewdef.simple block_b ]

let full_query_matches_eval () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 9; 9 ] ]); (r2, [ [ 2; 0 ] ]) ] in
  List.iter
    (fun vd ->
      check_bag
        (vd.R.Viewdef.name ^ " full query = eval")
        (R.Viewdef.eval db vd)
        (R.Eval.query db (R.Viewdef.full_query vd)))
    [ union_view; diff_view ]

let constructors () =
  let a = R.Viewdef.simple block_a and b = R.Viewdef.simple block_b in
  check_int "union parts" 2 (List.length (R.Viewdef.union a b).R.Viewdef.parts);
  check_int "diff parts" 2 (List.length (R.Viewdef.diff a b).R.Viewdef.parts);
  check_bool "diff second part negative" true
    (match (R.Viewdef.diff a b).R.Viewdef.parts with
     | [ _; (R.Sign.Neg, _) ] -> true
     | _ -> false);
  (match R.Viewdef.make ~name:"bad" [] with
   | exception R.Viewdef.Viewdef_error _ -> ()
   | _ -> Alcotest.fail "empty parts accepted");
  check_bool "mentions across parts" true (R.Viewdef.mentions union_view "r2");
  Alcotest.(check (list string))
    "relation names deduped" [ "r1"; "r2" ]
    (R.Viewdef.relation_names union_view)

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let run_compound ~algorithm ~schedule vd db updates =
  Core.Engine.run ~schedule
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:[ source_site db ] ~views:[ vd ] ~updates ()

let updates_mixed =
  [
    ins "r1" [ 7; 9 ]; ins "r2" [ 9; 1 ]; del "r1" [ 1; 2 ];
    ins "r1" [ 2; 6 ]; del "r2" [ 2; 0 ];
  ]

let maintenance_under_schedules () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 3; 9 ] ]); (r2, [ [ 2; 0 ] ]) ] in
  List.iter
    (fun vd ->
      let truth = R.Viewdef.eval (R.Db.apply_all db updates_mixed) vd in
      List.iter
        (fun (algorithm, wants_complete) ->
          List.iter
            (fun schedule ->
              let r = run_compound ~algorithm ~schedule vd db updates_mixed in
              let report = List.assoc "U" r.Core.Engine.reports in
              check_bool
                (Printf.sprintf "%s on %s consistent" algorithm
                   vd.R.Viewdef.name)
                true
                (if wants_complete then report.Core.Consistency.complete
                 else report.Core.Consistency.strongly_consistent);
              check_bag
                (Printf.sprintf "%s on %s correct" algorithm vd.R.Viewdef.name)
                truth
                (List.assoc "U" r.Core.Engine.final_mvs))
            [ Core.Scheduler.Best_case; Core.Scheduler.Worst_case;
              Core.Scheduler.Random 17 ])
        [ ("eca", false); ("lca", true); ("rv", false); ("sc", true) ])
    [ union_view; diff_view ]

let basic_still_anomalous_on_unions () =
  (* the anomaly phenomenon is orthogonal to the view shape *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let vd = R.Viewdef.make ~name:"U" [ (R.Sign.Pos, block_b) ] in
  let vd =
    R.Viewdef.union ~name:"U" vd (R.Viewdef.simple block_b)
  in
  ignore vd;
  let vd2 =
    R.Viewdef.make ~name:"U"
      [ (R.Sign.Pos, block_b); (R.Sign.Pos, block_b) ]
  in
  let updates = [ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ] in
  let r =
    run_compound ~algorithm:"basic" ~schedule:(explicit "AWAWSWSW") vd2 db
      updates
  in
  check_bool "basic stays anomalous" false
    (List.assoc "U" r.Core.Engine.reports).Core.Consistency.weakly_consistent;
  let r' =
    run_compound ~algorithm:"eca" ~schedule:(explicit "AWAWSWSW") vd2 db
      updates
  in
  check_bool "eca fixes it on compound views too" true
    (List.assoc "U" r'.Core.Engine.reports)
      .Core.Consistency.strongly_consistent

let ecak_rejects_compound () =
  let db = db_of [ (r1, []); (r2, []) ] in
  match
    Core.Eca_key.create (Core.Algorithm.Config.of_db union_view db)
  with
  | exception Core.Eca_key.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

let negative_states_are_legal_for_differences () =
  (* a difference view can legitimately go net-negative; maintenance must
     track it faithfully rather than clamp *)
  let vd =
    R.Viewdef.make ~name:"U"
      [ (R.Sign.Pos, block_a); (R.Sign.Neg, block_b) ]
  in
  (* r1 x r2 join counts can exceed plain r1 counts *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 0 ]; [ 2; 1 ] ]) ] in
  let truth = R.Viewdef.eval db vd in
  check_int "initially net -1" (-1) (R.Bag.count truth (R.Tuple.ints [ 1 ]));
  let updates = [ ins "r2" [ 2; 5 ] ] in
  let r =
    run_compound ~algorithm:"eca" ~schedule:Core.Scheduler.Worst_case vd db
      updates
  in
  check_int "maintained to net -2" (-2)
    (R.Bag.count (List.assoc "U" r.Core.Engine.final_mvs) (R.Tuple.ints [ 1 ]))

(* ------------------------------------------------------------------ *)
(* qcheck                                                              *)
(* ------------------------------------------------------------------ *)

let compound_prop =
  QCheck.Test.make
    ~name:"ECA/LCA strongly consistent on random compound views" ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let tuple () = R.Tuple.ints [ Random.State.int st 5; Random.State.int st 5 ] in
      let rows n = List.init (Random.State.int st n) (fun _ -> tuple ()) in
      let db =
        R.Db.of_list
          [
            (r1, R.Bag.of_list (rows 5));
            (r2, R.Bag.of_list (rows 5));
          ]
      in
      let vd =
        let sign () = if Random.State.bool st then R.Sign.Pos else R.Sign.Neg in
        let parts =
          (R.Sign.Pos, block_a)
          :: List.filter_map
               (fun b -> if Random.State.bool st then Some (sign (), b) else None)
               [ block_b; block_c ]
        in
        R.Viewdef.make ~name:"U" parts
      in
      let updates =
        List.init
          (1 + Random.State.int st 5)
          (fun _ ->
            let rel = if Random.State.bool st then "r1" else "r2" in
            let t = tuple () in
            if
              Random.State.bool st
              || R.Bag.count (R.Db.contents db rel) t <= 0
            then R.Update.insert rel t
            else R.Update.delete rel t)
      in
      (* make the stream applicable in order *)
      let _, updates =
        List.fold_left
          (fun (db, acc) u ->
            match R.Db.apply db u with
            | db' -> (db', u :: acc)
            | exception R.Db.Db_error _ ->
              let u' = R.Update.insert u.R.Update.rel u.R.Update.tuple in
              (R.Db.apply db u', u' :: acc))
          (db, []) updates
      in
      let updates = List.rev updates in
      let truth = R.Viewdef.eval (R.Db.apply_all db updates) vd in
      List.for_all
        (fun (algorithm, wants_complete) ->
          List.for_all
            (fun schedule ->
              let r = run_compound ~algorithm ~schedule vd db updates in
              let report = List.assoc "U" r.Core.Engine.reports in
              (if wants_complete then report.Core.Consistency.complete
               else report.Core.Consistency.strongly_consistent)
              && R.Bag.equal truth (List.assoc "U" r.Core.Engine.final_mvs))
            [ Core.Scheduler.Worst_case; Core.Scheduler.Random seed ])
        [ ("eca", false); ("lca", true) ])

let suite =
  [
    Alcotest.test_case "union and difference evaluation" `Quick
      eval_union_and_diff;
    Alcotest.test_case "delta linearity" `Quick delta_linearity;
    Alcotest.test_case "full query matches eval" `Quick full_query_matches_eval;
    Alcotest.test_case "constructors and metadata" `Quick constructors;
    Alcotest.test_case "maintenance under adversarial schedules" `Quick
      maintenance_under_schedules;
    Alcotest.test_case "basic anomalous / ECA correct on unions" `Quick
      basic_still_anomalous_on_unions;
    Alcotest.test_case "ECAK rejects compound views" `Quick
      ecak_rejects_compound;
    Alcotest.test_case "negative difference states tracked" `Quick
      negative_states_are_legal_for_differences;
  ]
  @ [ QCheck_alcotest.to_alcotest compound_prop ]
