(* Algorithm-level behaviour beyond the paper's worked examples:
   compensation structure, RV periods, SC, LCA completeness, ECAL local
   handling, multi-view warehouses, and the registry. *)

open Helpers
module R = Relational
module A = Core.Algorithm

let cfg_of db view = A.Config.of_view_db view db

(* ------------------------------------------------------------------ *)
(* ECA internals                                                       *)
(* ------------------------------------------------------------------ *)

let eca_compensation_structure () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let view = view_w3 () in
  let t = Core.Eca.create (cfg_of db view) in
  let o1 = Core.Eca.on_update t (ins "r1" [ 4; 2 ]) in
  let q1 = match o1.A.send with [ (_, q) ] -> q | _ -> Alcotest.fail "q1" in
  check_int "Q1 = V<U1>: one term" 1 (R.Query.term_count q1);
  let o2 = Core.Eca.on_update t (ins "r3" [ 5; 3 ]) in
  let q2 = match o2.A.send with [ (_, q) ] -> q | _ -> Alcotest.fail "q2" in
  check_int "Q2 = V<U2> - Q1<U2>: two terms" 2 (R.Query.term_count q2);
  check_int "UQS now holds two queries" 2 (List.length (Core.Eca.uqs t));
  let o3 = Core.Eca.on_update t (ins "r2" [ 2; 5 ]) in
  let q3 = match o3.A.send with [ (_, q) ] -> q | _ -> Alcotest.fail "q3" in
  (* V<U3> - Q1<U3> - Q2<U3>: Q2<U3> contributes one remote and one
     all-literal term; the literal one is evaluated locally, leaving three
     remote terms. *)
  check_int "Q3 ships three terms" 3 (R.Query.term_count q3)

let eca_no_compensation_when_quiescent () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let t = Core.Eca.create (cfg_of db (view_w ())) in
  let o1 = Core.Eca.on_update t (ins "r2" [ 2; 3 ]) in
  (match o1.A.send with
   | [ (id, q) ] ->
     check_int "single plain term" 1 (R.Query.term_count q);
     let o2 = Core.Eca.on_answer t ~id (bag [ [ 1 ] ]) in
     check_int "installs exactly once" 1 (List.length o2.A.installs)
   | _ -> Alcotest.fail "expected one query");
  check_bool "quiescent again" true (Core.Eca.quiescent t);
  (* the next update again needs no compensation *)
  let o3 = Core.Eca.on_update t (ins "r2" [ 9; 9 ]) in
  match o3.A.send with
  | [ (_, q) ] -> check_int "still one term" 1 (R.Query.term_count q)
  | _ -> Alcotest.fail "expected one query"

let eca_collect_defers_install () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let t = Core.Eca.create (cfg_of db (view_w3 ())) in
  let o1 = Core.Eca.on_update t (ins "r1" [ 4; 2 ]) in
  let o2 = Core.Eca.on_update t (ins "r2" [ 2; 5 ]) in
  let id1 = match o1.A.send with [ (i, _) ] -> i | _ -> Alcotest.fail "id1" in
  let id2 = match o2.A.send with [ (i, _) ] -> i | _ -> Alcotest.fail "id2" in
  let oa = Core.Eca.on_answer t ~id:id1 (bag [ [ 4 ] ]) in
  check_int "no install while UQS non-empty" 0 (List.length oa.A.installs);
  let ob = Core.Eca.on_answer t ~id:id2 (bag [ [ 1 ] ]) in
  check_int "install on the last answer" 1 (List.length ob.A.installs);
  check_bag "both answers installed together" (bag [ [ 1 ]; [ 4 ] ])
    (Core.Eca.mv t)

(* Answers that overtake each other (a reordering edge): the UQS drops
   exactly the answered query and the install still waits for both. *)
let eca_answers_out_of_order () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let t = Core.Eca.create (cfg_of db (view_w3 ())) in
  let o1 = Core.Eca.on_update t (ins "r1" [ 4; 2 ]) in
  let o2 = Core.Eca.on_update t (ins "r2" [ 2; 5 ]) in
  let id1 = match o1.A.send with [ (i, _) ] -> i | _ -> Alcotest.fail "id1" in
  let id2 = match o2.A.send with [ (i, _) ] -> i | _ -> Alcotest.fail "id2" in
  let ob = Core.Eca.on_answer t ~id:id2 (bag [ [ 1 ] ]) in
  check_int "no install while the older query is pending" 0
    (List.length ob.A.installs);
  Alcotest.(check (list int)) "only the older query remains" [ id1 ]
    (List.map fst (Core.Eca.uqs t));
  let oa = Core.Eca.on_answer t ~id:id1 (bag [ [ 4 ] ]) in
  check_int "install on the last answer" 1 (List.length oa.A.installs);
  check_bag "both answers installed together" (bag [ [ 1 ]; [ 4 ] ])
    (Core.Eca.mv t)

let eca_ignores_foreign_relations () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let t = Core.Eca.create (cfg_of db (view_w ())) in
  let o = Core.Eca.on_update t (ins "r3" [ 9; 9 ]) in
  check_int "no query for an unrelated relation" 0 (List.length o.A.send)

(* Catalog-style views (keyed r1(W,X) and r2(X,Y), a threshold on r1.W,
   two projections, plus one view extended by a keyed r3(Y,Z)) under the
   worst-case schedule: every update lands while all earlier queries are
   pending, so each query compensates the whole UQS. On the two-relation
   views every compensation term is literal-only and answered at the
   warehouse; on the three-relation view they keep a base slot and ship.
   The shipped queries are pinned term by term, in order. *)
let compact_term (t : R.Term.t) =
  let slot = function
    | R.Term.Base s -> s.R.Schema.name
    | R.Term.Lit (s, g, tup) ->
      s.R.Schema.name ^ ":" ^ R.Sign.to_string g ^ R.Tuple.to_string tup
  in
  (match t.R.Term.sign with R.Sign.Pos -> "+" | R.Sign.Neg -> "-")
  ^ String.concat " x " (List.map slot t.R.Term.slots)

let eca_worst_case_catalog_queries () =
  let r1 = Workload.Generator.keyed_r1 and r2 = Workload.Generator.keyed_r2 in
  let r3 = R.Schema.of_names ~key:[ "Z" ] "r3" [ "Y"; "Z" ] in
  let view ?(sources = [ r1; r2 ]) name proj =
    R.View.natural_join ~name
      ~extra_cond:R.Predicate.(Cmp (Ge, col "r1.W", int 1))
      ~proj sources
  in
  let views =
    [
      view "y_w1" [ R.Attr.unqualified "Y" ];
      view "xy_w1" [ R.Attr.qualified "r2" "X"; R.Attr.unqualified "Y" ];
      view ~sources:[ r1; r2; r3 ] "wz_w1"
        [ R.Attr.unqualified "W"; R.Attr.unqualified "Z" ];
    ]
  in
  let db =
    db_of
      [
        (r1, [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 1 ] ]);
        (r2, [ [ 1; 10 ]; [ 2; 11 ] ]);
        (r3, [ [ 10; 100 ]; [ 12; 101 ] ]);
      ]
  in
  let updates =
    [
      ins "r1" [ 3; 2 ];
      ins "r2" [ 2; 12 ];
      ins "r3" [ 11; 102 ];
      del "r1" [ 1; 2 ];
      ins "r1" [ 4; 1 ];
      del "r2" [ 1; 10 ];
    ]
  in
  let result =
    run ~algorithm:"eca" ~schedule:Core.Scheduler.Worst_case ~views ~db
      ~updates ()
  in
  let shipped =
    List.concat_map
      (function
        | Core.Trace.Warehouse_note { queries; _ } ->
          List.map
            (fun (gid, q) -> (gid, List.map compact_term (R.Query.terms q)))
            queries
        | _ -> [])
      (Core.Trace.entries result.Core.Engine.trace)
  in
  let expected =
    [
      (0, [ "+r1:+[3,2] x r2" ]);
      (1, [ "+r1:+[3,2] x r2" ]);
      (2, [ "+r1:+[3,2] x r2 x r3" ]);
      (3, [ "+r1 x r2:+[2,12]" ]);
      (4, [ "+r1 x r2:+[2,12]" ]);
      (5, [ "+r1 x r2:+[2,12] x r3"; "-r1:+[3,2] x r2:+[2,12] x r3" ]);
      ( 6,
        [
          "+r1 x r2 x r3:+[11,102]";
          "-r1:+[3,2] x r2 x r3:+[11,102]";
          "-r1 x r2:+[2,12] x r3:+[11,102]";
        ] );
      (7, [ "+r1:-[1,2] x r2" ]);
      (8, [ "+r1:-[1,2] x r2" ]);
      ( 9,
        [
          "+r1:-[1,2] x r2 x r3";
          "-r1:-[1,2] x r2:+[2,12] x r3";
          "-r1:-[1,2] x r2 x r3:+[11,102]";
        ] );
      (10, [ "+r1:+[4,1] x r2" ]);
      (11, [ "+r1:+[4,1] x r2" ]);
      ( 12,
        [
          "+r1:+[4,1] x r2 x r3";
          "-r1:+[4,1] x r2:+[2,12] x r3";
          "-r1:+[4,1] x r2 x r3:+[11,102]";
        ] );
      (13, [ "+r1 x r2:-[1,10]" ]);
      (14, [ "+r1 x r2:-[1,10]" ]);
      ( 15,
        [
          "+r1 x r2:-[1,10] x r3";
          "-r1:+[3,2] x r2:-[1,10] x r3";
          "-r1 x r2:-[1,10] x r3:+[11,102]";
          "-r1:-[1,2] x r2:-[1,10] x r3";
          "-r1:+[4,1] x r2:-[1,10] x r3";
        ] );
    ]
  in
  Alcotest.(check (list (pair int (list string))))
    "shipped queries" expected shipped;
  List.iter
    (fun (v : R.View.t) ->
      check_bool (v.R.View.name ^ " strongly consistent") true
        (report result v.R.View.name).Core.Consistency.strongly_consistent)
    views

(* ------------------------------------------------------------------ *)
(* RV periods and messages                                             *)
(* ------------------------------------------------------------------ *)

let rv_messages ~k ~period =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let updates = List.init k (fun i -> ins "r2" [ 2; 10 + i ]) in
  let result =
    run ~algorithm:"rv" ~rv_period:period ~views:[ view_w () ] ~db ~updates ()
  in
  (result, Core.Metrics.messages result.Core.Engine.metrics)

let rv_period_message_counts () =
  let r1_, m1 = rv_messages ~k:6 ~period:1 in
  check_int "s=1: 2k messages" 12 m1;
  check_bool "s=1 strongly consistent" true
    (report r1_ "V").Core.Consistency.strongly_consistent;
  let r2_, m2 = rv_messages ~k:6 ~period:3 in
  check_int "s=3: 2*ceil(k/s)" 4 m2;
  check_bool "s=3 converges" true (report r2_ "V").Core.Consistency.convergent;
  let r3_, m3 = rv_messages ~k:6 ~period:6 in
  check_int "s=k: 2 messages" 2 m3;
  check_bool "s=k converges" true (report r3_ "V").Core.Consistency.convergent

let rv_final_recompute_on_partial_period () =
  let _, m = rv_messages ~k:5 ~period:3 in
  (* one periodic recompute after U3 plus the final flush: 2 * 2. *)
  check_int "partial period flushed at quiescence" 4 m

let rv_replaces_view () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let result =
    run ~algorithm:"rv" ~rv_period:1 ~schedule:(explicit "AWAWSWSW")
      ~views:[ view_w () ] ~db
      ~updates:[ del "r1" [ 1; 2 ]; ins "r1" [ 7; 2 ] ]
      ()
  in
  check_bag "recompute final state" (bag [ [ 7 ] ]) (final_mv result "V");
  check_bool "strongly consistent even under racing updates" true
    (report result "V").Core.Consistency.strongly_consistent

(* Regression for the pending queue's switch from list appends to
   [Fqueue]: recompute ids must stay in issue order, with answered ids
   removed from anywhere in the queue and quiescence exactly when it
   drains. *)
let rv_pending_order () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let t = Core.Rv.create (cfg_of db (view_w ())) in
  let fire i = ignore (Core.Rv.on_update t (ins "r1" [ 10 + i; 2 ])) in
  fire 0; fire 1; fire 2;
  Alcotest.(check (list int)) "ids in issue order" [ 0; 1; 2 ]
    (Core.Rv.pending t);
  check_bool "outstanding queries block quiescence" false
    (Core.Rv.quiescent t);
  ignore (Core.Rv.on_answer t ~id:1 (bag [ [ 1 ] ]));
  Alcotest.(check (list int)) "answered id removed, order kept" [ 0; 2 ]
    (Core.Rv.pending t);
  ignore (Core.Rv.on_answer t ~id:0 (bag [ [ 1 ] ]));
  ignore (Core.Rv.on_answer t ~id:2 (bag [ [ 1 ] ]));
  Alcotest.(check (list int)) "drained" [] (Core.Rv.pending t);
  check_bool "quiescent once drained" true (Core.Rv.quiescent t)

(* ------------------------------------------------------------------ *)
(* SC                                                                  *)
(* ------------------------------------------------------------------ *)

let sc_never_queries () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let result =
    run ~algorithm:"sc" ~schedule:(explicit "AAWW") ~views:[ view_w () ] ~db
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ]
      ()
  in
  check_int "zero queries" 0 result.Core.Engine.metrics.Core.Metrics.queries_sent;
  check_bag "correct final view" (bag [ [ 1 ]; [ 4 ] ]) (final_mv result "V");
  check_bool "complete" true (report result "V").Core.Consistency.complete

let sc_handles_deletes () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 4; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let result =
    run ~algorithm:"sc" ~views:[ view_w () ] ~db
      ~updates:[ del "r1" [ 4; 2 ]; del "r2" [ 2; 3 ] ]
      ()
  in
  check_bag "view emptied" R.Bag.empty (final_mv result "V");
  check_bool "complete" true (report result "V").Core.Consistency.complete

let sc_requires_init_db () =
  let view = view_w () in
  Alcotest.check_raises "missing replica seed"
    (Core.Sc.Not_applicable
       "SC needs the initial base relations (Config.init_db) to seed its \
        replica") (fun () ->
      ignore
        (Core.Sc.create
           (A.Config.make ~view:(R.Viewdef.simple view) ~init_mv:R.Bag.empty
              ())))

(* ------------------------------------------------------------------ *)
(* LCA                                                                 *)
(* ------------------------------------------------------------------ *)

let lca_complete_on_example4 () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let updates =
    [ ins "r1" [ 4; 2 ]; ins "r3" [ 5; 3 ]; ins "r2" [ 2; 5 ] ]
  in
  let result =
    run ~algorithm:"lca" ~schedule:Core.Scheduler.Worst_case
      ~views:[ view_w3 () ] ~db ~updates ()
  in
  check_bag "correct final view" (bag [ [ 1 ]; [ 4 ] ]) (final_mv result "V");
  check_bool "complete" true (report result "V").Core.Consistency.complete

let eca_not_complete_where_lca_is () =
  (* Under the same worst-case interleaving, ECA collapses all three
     updates into one installation and skips intermediate source states. *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 6 ] ]); (r3, [ [ 6; 1 ] ]) ] in
  let updates =
    [ ins "r1" [ 4; 2 ]; ins "r3" [ 6; 3 ]; ins "r2" [ 2; 6 ] ]
  in
  let run_with algorithm =
    run ~algorithm ~schedule:Core.Scheduler.Worst_case ~views:[ view_w3 () ]
      ~db ~updates ()
  in
  let eca = run_with "eca" and lca = run_with "lca" in
  check_bool "ECA strongly consistent" true
    (report eca "V").Core.Consistency.strongly_consistent;
  check_bool "ECA misses intermediate states" false
    (report eca "V").Core.Consistency.complete;
  check_bool "LCA complete" true (report lca "V").Core.Consistency.complete;
  check_bag "same final view" (final_mv eca "V") (final_mv lca "V")

let lca_sends_more_messages () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let updates =
    [ ins "r1" [ 4; 2 ]; ins "r3" [ 5; 3 ]; ins "r2" [ 2; 5 ] ]
  in
  let m algorithm =
    let r =
      run ~algorithm ~schedule:Core.Scheduler.Worst_case ~views:[ view_w3 () ]
        ~db ~updates ()
    in
    Core.Metrics.messages r.Core.Engine.metrics
  in
  check_bool "LCA >= ECA in messages" true (m "lca" >= m "eca")

(* ------------------------------------------------------------------ *)
(* ECAL                                                                *)
(* ------------------------------------------------------------------ *)

let ecal_local_delete_sends_nothing () =
  let db = db_of [ (r1_wkey, [ [ 1; 2 ]; [ 4; 2 ] ]); (r2_ykey, [ [ 2; 3 ] ]) ] in
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let result =
    run ~algorithm:"eca-local" ~schedule:Core.Scheduler.Best_case
      ~views:[ view ] ~db
      ~updates:[ del "r1" [ 1; 2 ] ]
      ()
  in
  check_int "no query for the local delete" 0
    result.Core.Engine.metrics.Core.Metrics.queries_sent;
  check_bag "key-delete applied" (bag [ [ 4; 3 ] ]) (final_mv result "V");
  check_bool "strongly consistent" true
    (report result "V").Core.Consistency.strongly_consistent

let ecal_falls_back_under_contention () =
  (* A delete arriving while an insert's query is pending goes through the
     compensating path, and the run stays strongly consistent. *)
  let db = db_of [ (r1_wkey, [ [ 1; 2 ] ]); (r2_ykey, [ [ 2; 3 ] ]) ] in
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let result =
    run ~algorithm:"eca-local" ~schedule:(explicit "AWAWSWSW") ~views:[ view ]
      ~db
      ~updates:[ ins "r2" [ 2; 4 ]; del "r1" [ 1; 2 ] ]
      ()
  in
  check_int "both updates queried" 2
    result.Core.Engine.metrics.Core.Metrics.queries_sent;
  check_bag "correct final view" R.Bag.empty (final_mv result "V");
  check_bool "strongly consistent" true
    (report result "V").Core.Consistency.strongly_consistent

let ecal_classification () =
  let keyed_view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  check_bool "keyed delete is local" true
    (Core.Eca_local.is_local keyed_view (del "r1" [ 1; 2 ]));
  check_bool "insert is never local" false
    (Core.Eca_local.is_local keyed_view (ins "r1" [ 1; 2 ]));
  check_bool "delete without key coverage is not local" false
    (Core.Eca_local.is_local (view_w ()) (del "r2" [ 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* ECAK guards and key-delete                                          *)
(* ------------------------------------------------------------------ *)

let ecak_same_relation_insert_delete_race () =
  (* The regression for the paper's Appendix-C gap: an insert into r2 and
     a deletion of that very tuple both race the insert's query. The
     query carries the deleted tuple as a literal, so its (late) answer
     still derives the dead view tuple; the tombstone must drop it. *)
  let db = db_of [ (r1_wkey, [ [ 0; 0 ] ]); (r2_ykey, []) ] in
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let updates = [ ins "r2" [ 0; 0 ]; del "r2" [ 0; 0 ] ] in
  let result =
    run ~algorithm:"eca-key" ~schedule:Core.Scheduler.Worst_case
      ~views:[ view ] ~db ~updates ()
  in
  check_bag "view ends empty" R.Bag.empty (final_mv result "V");
  check_bool "strongly consistent" true
    (report result "V").Core.Consistency.strongly_consistent;
  (* and a re-insertion of the very same key after the delete must
     survive: the tombstone only filters answers of earlier queries *)
  let updates' =
    [ ins "r2" [ 0; 0 ]; del "r2" [ 0; 0 ]; ins "r2" [ 0; 0 ] ]
  in
  let result' =
    run ~algorithm:"eca-key" ~schedule:Core.Scheduler.Worst_case
      ~views:[ view ] ~db ~updates:updates' ()
  in
  check_bag "re-inserted key survives the tombstone"
    (bag [ [ 0; 0 ] ])
    (final_mv result' "V")

let ecak_rejects_uncovered_views () =
  match Core.Eca_key.create (cfg_of (db_of [ (r1, []); (r2, []) ]) (view_w ())) with
  | exception Core.Eca_key.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

let key_delete_semantics () =
  let view = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  let mv = bag [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ] ] in
  let mv' = Core.Mview.key_delete ~view ~rel:"r1" (R.Tuple.ints [ 1; 7 ]) mv in
  check_bag "all [1,*] tuples removed" (bag [ [ 2; 3 ] ]) mv';
  let mv'' = Core.Mview.key_delete ~view ~rel:"r2" (R.Tuple.ints [ 9; 3 ]) mv in
  check_bag "all [*,3] tuples removed" (bag [ [ 1; 4 ] ]) mv''

(* ------------------------------------------------------------------ *)
(* Multi-view warehouses (Section 7)                                   *)
(* ------------------------------------------------------------------ *)

let multi_view_eca () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []); (r3, []) ] in
  let v_w = view_w ~name:"VW" () in
  let v_w3 = view_w3 ~name:"VW3" () in
  let result =
    run ~algorithm:"eca" ~schedule:(explicit "AWAWSSWWSW")
      ~views:[ v_w; v_w3 ] ~db
      ~updates:[ ins "r2" [ 2; 3 ]; ins "r1" [ 4; 2 ] ]
      ()
  in
  check_bag "two-relation view" (bag [ [ 1 ]; [ 4 ] ]) (final_mv result "VW");
  check_bag "three-relation view is empty (r3 empty)" R.Bag.empty
    (final_mv result "VW3");
  List.iter
    (fun name ->
      check_bool
        (name ^ " strongly consistent")
        true
        (report result name).Core.Consistency.strongly_consistent)
    [ "VW"; "VW3" ]

(* ------------------------------------------------------------------ *)
(* Registry, schedules, engine guards                                  *)
(* ------------------------------------------------------------------ *)

let eca_paper_literal_mode_agrees () =
  (* with local literal evaluation disabled (Algorithm 5.2 read literally,
     every term shipped), the result must be identical *)
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:20 ~j:3 ~k_updates:12 ~insert_ratio:0.7 ~seed:2 ())
  in
  let final local_literal_eval =
    let r =
      Core.Engine.run ~schedule:Core.Scheduler.Worst_case ~local_literal_eval
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
    in
    check_bool "strongly consistent" true
      (List.assoc "V" r.Core.Engine.reports)
        .Core.Consistency.strongly_consistent;
    List.assoc "V" r.Core.Engine.final_mvs
  in
  check_bag "both modes agree" (final true) (final false)

let basic_can_over_delete () =
  (* A racing delete whose query sees a later insert subtracts two copies
     of [1] when only one exists: the basic algorithm drives the view
     into a negative state, which the engine flags. *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let updates = [ del "r1" [ 1; 2 ]; ins "r2" [ 2; 4 ] ] in
  let result =
    run ~algorithm:"basic" ~schedule:(explicit "AWAWSWSW")
      ~views:[ view_w () ] ~db ~updates ()
  in
  check_bool "negative install detected" true
    (result.Core.Engine.negative_installs <> []);
  check_bool "and the run is inconsistent" false
    (report result "V").Core.Consistency.weakly_consistent

let correct_algorithms_never_go_negative () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:20 ~j:3 ~k_updates:16 ~insert_ratio:0.4 ~seed:13 ())
  in
  List.iter
    (fun algorithm ->
      List.iter
        (fun schedule ->
          let r = run ~algorithm ~schedule ~views:[ view ] ~db ~updates () in
          check_bool
            (algorithm ^ " never installs a negative state")
            true
            (r.Core.Engine.negative_installs = []))
        [ Core.Scheduler.Best_case; Core.Scheduler.Worst_case;
          Core.Scheduler.Random 3 ])
    [ "eca"; "lca"; "rv"; "sc"; "eca-local" ]

let registry_contents () =
  check_int "nine algorithms" 9 (List.length Core.Registry.names);
  List.iter
    (fun name ->
      check_bool (name ^ " registered") true
        (Option.is_some (Core.Registry.find name)))
    [ "basic"; "eca"; "eca-key"; "eca-local"; "eca-sm"; "lca"; "rv"; "sc";
      "fetch-join" ];
  match (Core.Registry.creator_exn "no-such" : A.creator) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let explicit_schedule_guard () =
  let db = db_of [ (r1, []); (r2, []) ] in
  match
    run ~algorithm:"eca" ~schedule:(explicit "S") ~views:[ view_w () ] ~db
      ~updates:[ ins "r1" [ 1; 1 ] ] ()
  with
  | exception Core.Scheduler.Schedule_error _ -> ()
  | _ -> Alcotest.fail "expected Schedule_error"

let best_case_equals_basic_messages () =
  (* Under the best-case schedule ECA behaves exactly like Algorithm 5.1:
     2 messages per relevant update and single-term queries. *)
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let updates = List.init 5 (fun i -> ins "r2" [ 2; 10 + i ]) in
  let m algorithm =
    let r =
      run ~algorithm ~schedule:Core.Scheduler.Best_case ~views:[ view_w () ]
        ~db ~updates ()
    in
    ( Core.Metrics.messages r.Core.Engine.metrics,
      r.Core.Engine.metrics.Core.Metrics.answer_tuples )
  in
  let m_eca, t_eca = m "eca" and m_basic, t_basic = m "basic" in
  check_int "same message count" m_basic m_eca;
  check_int "same transfer" t_basic t_eca

let round_robin_and_random_schedules_work () =
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, []) ] in
  let updates = List.init 6 (fun i -> ins "r2" [ 2; i ]) in
  List.iter
    (fun schedule ->
      let r = run ~algorithm:"eca" ~schedule ~views:[ view_w () ] ~db ~updates () in
      check_bool "strongly consistent" true
        (report r "V").Core.Consistency.strongly_consistent)
    [ Core.Scheduler.Round_robin; Core.Scheduler.Random 11; Core.Scheduler.Random 99 ]

let suite =
  [
    Alcotest.test_case "ECA compensation structure" `Quick
      eca_compensation_structure;
    Alcotest.test_case "ECA degenerates to basic when quiescent" `Quick
      eca_no_compensation_when_quiescent;
    Alcotest.test_case "ECA defers install until UQS empty" `Quick
      eca_collect_defers_install;
    Alcotest.test_case "ECA accepts answers out of order" `Quick
      eca_answers_out_of_order;
    Alcotest.test_case "ECA ignores foreign relations" `Quick
      eca_ignores_foreign_relations;
    Alcotest.test_case "ECA worst case on catalog views: pinned queries" `Quick
      eca_worst_case_catalog_queries;
    Alcotest.test_case "RV message counts by period" `Quick
      rv_period_message_counts;
    Alcotest.test_case "RV flushes partial periods" `Quick
      rv_final_recompute_on_partial_period;
    Alcotest.test_case "RV replaces the view" `Quick rv_replaces_view;
    Alcotest.test_case "RV pending order (regression)" `Quick
      rv_pending_order;
    Alcotest.test_case "SC never queries the source" `Quick sc_never_queries;
    Alcotest.test_case "SC handles deletes" `Quick sc_handles_deletes;
    Alcotest.test_case "SC requires the replica seed" `Quick
      sc_requires_init_db;
    Alcotest.test_case "LCA complete on Example 4" `Quick
      lca_complete_on_example4;
    Alcotest.test_case "ECA strong but not complete; LCA complete" `Quick
      eca_not_complete_where_lca_is;
    Alcotest.test_case "LCA pays in messages" `Quick lca_sends_more_messages;
    Alcotest.test_case "ECAL local delete sends nothing" `Quick
      ecal_local_delete_sends_nothing;
    Alcotest.test_case "ECAL falls back under contention" `Quick
      ecal_falls_back_under_contention;
    Alcotest.test_case "ECAL classification" `Quick ecal_classification;
    Alcotest.test_case "ECAK same-relation insert/delete race (regression)"
      `Quick ecak_same_relation_insert_delete_race;
    Alcotest.test_case "ECAK rejects uncovered views" `Quick
      ecak_rejects_uncovered_views;
    Alcotest.test_case "key-delete semantics" `Quick key_delete_semantics;
    Alcotest.test_case "multi-view warehouse" `Quick multi_view_eca;
    Alcotest.test_case "ECA paper-literal mode agrees" `Quick
      eca_paper_literal_mode_agrees;
    Alcotest.test_case "basic can over-delete into negative counts" `Quick
      basic_can_over_delete;
    Alcotest.test_case "correct algorithms never go negative" `Quick
      correct_algorithms_never_go_negative;
    Alcotest.test_case "registry contents" `Quick registry_contents;
    Alcotest.test_case "explicit schedule guard" `Quick
      explicit_schedule_guard;
    Alcotest.test_case "best case: ECA behaves like basic" `Quick
      best_case_equals_basic_messages;
    Alcotest.test_case "round-robin and random schedules" `Quick
      round_robin_and_random_schedules_work;
  ]
