(* The batched-update extension (Section 7: "handle a set of updates at
   once ... should result in a very useful performance enhancement"):
   batches are atomic source events with a single notification; ECA folds
   each batch into one query, LCA into one delta slot. *)

open Helpers
module R = Relational

let run_batched ?(schedule = Core.Scheduler.Worst_case) ~algorithm ~batch_size
    ~views ~db ~updates () =
  Core.Engine.run ~schedule ~batch_size
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:[ source_site db ] ~views:(defs views) ~updates ()

let example4_setup () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let updates =
    [ ins "r1" [ 4; 2 ]; ins "r3" [ 5; 3 ]; ins "r2" [ 2; 5 ] ]
  in
  (db, view_w3 (), updates)

let eca_batch_correct () =
  let db, view, updates = example4_setup () in
  let result =
    run_batched ~algorithm:"eca" ~batch_size:3 ~views:[ view ] ~db ~updates ()
  in
  check_bag "batched run is correct"
    (bag [ [ 1 ]; [ 4 ] ])
    (List.assoc "V" result.Core.Engine.final_mvs);
  check_bool "strongly consistent" true
    (List.assoc "V" result.Core.Engine.reports)
      .Core.Consistency.strongly_consistent

(* A batch that lands while an older query is pending: each update's
   query compensates the UQS first, then the batch's own earlier remote
   parts. The shipped query is checked term for term against the
   [Query.minus] fold that built it before compensation became one pass. *)
let eca_batch_compensation_order () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let view = view_w3 () in
  let inst = Core.Eca.instance (Core.Algorithm.Config.of_view_db view db) in
  let sent (o : Core.Algorithm.outcome) =
    match o.Core.Algorithm.send with
    | [ (_, q) ] -> q
    | _ -> Alcotest.fail "expected one query"
  in
  let q0 = sent (inst.Core.Algorithm.on_update (ins "r1" [ 4; 2 ])) in
  let batch = [ ins "r2" [ 2; 5 ]; ins "r3" [ 5; 3 ] ] in
  let shipped = sent (inst.Core.Algorithm.on_batch batch) in
  let expected =
    List.fold_left
      (fun batch_remote u ->
        let q = R.Query.minus (R.Query.view_delta view u) (R.Query.subst q0 u) in
        let q = R.Query.minus q (R.Query.subst batch_remote u) in
        R.Query.plus batch_remote
          (snd (R.Query.split_local (R.Query.simplify q))))
      R.Query.empty batch
  in
  check_int "2 + 3 remote terms (one literal-only term answered locally)" 5
    (R.Query.term_count shipped);
  Alcotest.(check string)
    "same terms in the same order" (R.Query.to_string expected)
    (R.Query.to_string shipped);
  check_bool "Query.equal" true (R.Query.equal expected shipped)

let eca_batch_message_savings () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let updates = List.init 12 (fun i -> ins "r2" [ 2; i ]) in
  let messages batch_size =
    let r =
      run_batched ~algorithm:"eca" ~batch_size ~views:[ view_w () ] ~db
        ~updates ()
    in
    Core.Metrics.messages r.Core.Engine.metrics
  in
  check_int "unbatched: 2k" 24 (messages 1);
  check_int "batch of 3: 2*ceil(k/3)" 8 (messages 3);
  check_int "batch of 12: one round trip" 2 (messages 12)

let eca_batch_agrees_with_unbatched () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:30 ~j:3 ~k_updates:18 ~insert_ratio:0.6 ~seed:4 ())
  in
  let final algorithm batch_size =
    let r =
      run_batched ~algorithm ~batch_size ~views:[ view ] ~db ~updates ()
    in
    List.assoc "V" r.Core.Engine.final_mvs
  in
  List.iter
    (fun algorithm ->
      let unbatched = final algorithm 1 in
      List.iter
        (fun b ->
          check_bag
            (Printf.sprintf "%s: batch %d agrees" algorithm b)
            unbatched (final algorithm b))
        [ 2; 3; 5; 18 ])
    [ "eca"; "lca"; "rv"; "sc"; "basic" ]

let lca_batch_complete_at_boundaries () =
  let db, view, updates = example4_setup () in
  let result =
    run_batched ~algorithm:"lca" ~batch_size:3 ~views:[ view ] ~db ~updates ()
  in
  check_bool "complete w.r.t. batch boundaries" true
    (List.assoc "V" result.Core.Engine.reports).Core.Consistency.complete

let lca_batch_mixed_sizes () =
  (* k not divisible by the batch size: a trailing partial batch. *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let updates =
    [
      ins "r2" [ 2; 5 ]; ins "r3" [ 5; 3 ]; ins "r1" [ 4; 2 ];
      ins "r3" [ 5; 9 ]; ins "r2" [ 2; 7 ];
    ]
  in
  let result =
    run_batched ~algorithm:"lca" ~batch_size:2 ~views:[ view_w3 () ] ~db
      ~updates ()
  in
  let expected = R.Eval.view (R.Db.apply_all db updates) (view_w3 ()) in
  check_bag "correct final view" expected
    (List.assoc "V" result.Core.Engine.final_mvs);
  check_bool "complete" true
    (List.assoc "V" result.Core.Engine.reports).Core.Consistency.complete

let ecak_batch_with_inner_race () =
  (* insert-then-delete of the same tuple within one batch: the tombstone
     logic must still hold when the notifications arrive together. *)
  let db = db_of [ (r1_wkey, [ [ 0; 0 ] ]); (r2_ykey, []) ] in
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let updates = [ ins "r2" [ 0; 0 ]; del "r2" [ 0; 0 ]; ins "r2" [ 0; 0 ] ] in
  let result =
    run_batched ~algorithm:"eca-key" ~batch_size:3 ~views:[ view ] ~db
      ~updates ()
  in
  check_bag "net effect survives in-batch race"
    (bag [ [ 0; 0 ] ])
    (List.assoc "V" result.Core.Engine.final_mvs)

let modification_as_batched_pair () =
  (* The paper models a modification as delete + insert; a batch of two
     makes it atomic end to end. *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let updates = [ del "r1" [ 1; 2 ]; ins "r1" [ 9; 2 ] ] in
  let result =
    run_batched ~algorithm:"eca" ~batch_size:2 ~views:[ view_w () ] ~db
      ~updates ()
  in
  check_bag "modified tuple" (bag [ [ 9 ] ])
    (List.assoc "V" result.Core.Engine.final_mvs);
  (* atomicity: the warehouse never shows the view without either value *)
  let states = Core.Trace.warehouse_states result.Core.Engine.trace "V" in
  check_bool "no intermediate empty view" false
    (List.exists R.Bag.is_empty states)

(* qcheck: batched runs of every algorithm stay correct across random
   workloads, batch sizes and schedules. *)
let batch_prop =
  QCheck.Test.make ~name:"batched runs remain strongly consistent" ~count:60
    (QCheck.make
       ~print:(fun (seed, b) -> Printf.sprintf "seed=%d batch=%d" seed b)
       QCheck.Gen.(pair (int_bound 1000) (int_range 2 5)))
    (fun (seed, batch_size) ->
      let { Workload.Scenarios.db; view; updates } =
        Workload.Scenarios.example6
          (Workload.Spec.make ~c:15 ~j:3 ~k_updates:9 ~insert_ratio:0.7 ~seed ())
      in
      let expected = R.Eval.view (R.Db.apply_all db updates) view in
      List.for_all
        (fun (algorithm, needs_complete) ->
          List.for_all
            (fun schedule ->
              let r =
                run_batched ~schedule ~algorithm ~batch_size ~views:[ view ]
                  ~db ~updates ()
              in
              let report = List.assoc "V" r.Core.Engine.reports in
              let ok_level =
                if needs_complete then report.Core.Consistency.complete
                else report.Core.Consistency.strongly_consistent
              in
              ok_level
              && R.Bag.equal expected (List.assoc "V" r.Core.Engine.final_mvs))
            [
              Core.Scheduler.Best_case; Core.Scheduler.Worst_case;
              Core.Scheduler.Random seed;
            ])
        [ ("eca", false); ("lca", true); ("sc", true); ("rv", false) ])

let suite =
  [
    Alcotest.test_case "ECA batch is correct" `Quick eca_batch_correct;
    Alcotest.test_case "ECA batch message savings" `Quick
      eca_batch_message_savings;
    Alcotest.test_case "ECA batch compensation order" `Quick
      eca_batch_compensation_order;
    Alcotest.test_case "batched agrees with unbatched" `Quick
      eca_batch_agrees_with_unbatched;
    Alcotest.test_case "LCA batch complete at boundaries" `Quick
      lca_batch_complete_at_boundaries;
    Alcotest.test_case "LCA partial trailing batch" `Quick
      lca_batch_mixed_sizes;
    Alcotest.test_case "ECAK in-batch insert/delete race" `Quick
      ecak_batch_with_inner_race;
    Alcotest.test_case "modification as an atomic batched pair" `Quick
      modification_as_batched_pair;
  ]
  @ [ QCheck_alcotest.to_alcotest batch_prop ]
