(* Multiple autonomous sources, one warehouse (Section 7's single-source
   views over a federation). *)

open Helpers
module R = Relational
module S = Core.Scheduler

(* Two sources: "hr" owns emp/dept, "sales" owns ord/cust. *)
let emp = R.Schema.of_names "emp" [ "EID"; "DID" ]
let dept = R.Schema.of_names "dept" [ "DID"; "BUDGET" ]
let ord = R.Schema.of_names "ord" [ "OID"; "CID" ]
let cust = R.Schema.of_names "cust" [ "CID"; "SEGMENT" ]

let hr_db () =
  R.Db.of_list
    [
      (emp, bag [ [ 1; 10 ]; [ 2; 20 ] ]);
      (dept, bag [ [ 10; 500 ]; [ 20; 900 ] ]);
    ]

let sales_db () =
  R.Db.of_list
    [ (ord, bag [ [ 100; 7 ] ]); (cust, bag [ [ 7; 1 ]; [ 8; 2 ] ]) ]

let v_hr =
  R.View.natural_join ~name:"emp_budget"
    ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "BUDGET" ]
    [ emp; dept ]

let v_sales =
  R.View.natural_join ~name:"ord_segment"
    ~proj:[ R.Attr.unqualified "OID"; R.Attr.unqualified "SEGMENT" ]
    [ ord; cust ]

let sources () =
  [ ("hr", None, hr_db ()); ("sales", None, sales_db ()) ]

let updates =
  [
    ins "emp" [ 3; 20 ];
    ins "ord" [ 101; 8 ];
    del "emp" [ 1; 10 ];
    ins "cust" [ 9; 3 ];
    del "ord" [ 100; 7 ];
    ins "dept" [ 30; 100 ];
  ]

let run ?schedule ?(updates = updates) algorithm =
  Core.Engine.run ?schedule
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:(fed_sites (sources ()))
    ~views:(defs [ v_hr; v_sales ])
    ~updates ()

let eca_per_view_is_enough () =
  List.iter
    (fun schedule ->
      let r = run ~schedule "eca" in
      List.iter
        (fun (name, report) ->
          check_bool
            (name ^ " strongly consistent")
            true report.Core.Consistency.strongly_consistent;
          check_bag (name ^ " matches its source")
            (List.assoc name r.Core.Engine.final_source_views)
            (List.assoc name r.Core.Engine.final_mvs))
        r.Core.Engine.reports)
    [ S.Best_case; S.Worst_case; S.Random 5; S.Random 77 ]

let updates_route_to_owners () =
  let r = run ~schedule:S.Worst_case "eca" in
  (* every update triggered exactly one query on its owning source's view *)
  check_int "six updates" 6 r.Core.Engine.metrics.Core.Metrics.updates;
  check_int "one query per update" 6
    r.Core.Engine.metrics.Core.Metrics.queries_sent

let basic_still_anomalous_across_sources () =
  (* decoupling anomalies are per source; the conventional algorithm still
     breaks when updates race within one source *)
  let anomaly_updates = [ ins "cust" [ 7; 9 ]; ins "ord" [ 102; 7 ] ] in
  let r =
    Core.Engine.run ~schedule:S.Worst_case
      ~creator:(Core.Registry.creator_exn "basic")
      ~sites:(fed_sites (sources ()))
      ~views:(defs [ v_sales ])
      ~updates:anomaly_updates ()
  in
  check_bool "basic fails in a federation too" false
    (List.assoc "ord_segment" r.Core.Engine.reports)
      .Core.Consistency.weakly_consistent

let cross_source_views_rejected () =
  let v_bad =
    R.View.make ~name:"bad"
      ~proj:[ R.Attr.qualified "emp" "EID"; R.Attr.qualified "cust" "CID" ]
      ~cond:R.Predicate.True [ emp; cust ]
  in
  match
    Core.Engine.run
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(fed_sites (sources ()))
      ~views:(defs [ v_bad ]) ~updates:[] ()
  with
  | exception Core.Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected Engine_error"

(* The opt-in naive cross-source strategy: a view joining HR employees to
   sales customers on matching ids, spanning both sources. *)
let v_cross =
  R.View.make ~name:"cross"
    ~proj:[ R.Attr.qualified "emp" "EID"; R.Attr.qualified "cust" "SEGMENT" ]
    ~cond:(R.Predicate.eq_attrs "emp.EID" "cust.CID")
    [ emp; cust ]

let run_cross ~schedule updates =
  Core.Engine.run ~schedule ~allow_cross_source:true
    ~creator:(Core.Registry.creator_exn "fetch-join")
    ~sites:(fed_sites (sources ()))
    ~views:(defs [ v_cross ])
    ~updates ()

let fetch_join_converges_when_drained () =
  let updates =
    [ ins "emp" [ 7; 10 ]; ins "cust" [ 2; 9 ]; del "emp" [ 7; 10 ] ]
  in
  let r = run_cross ~schedule:S.Best_case updates in
  check_bool "convergent when every update drains" true
    (List.assoc "cross" r.Core.Engine.reports).Core.Consistency.convergent;
  check_bag "matches the merged global state"
    (List.assoc "cross" r.Core.Engine.final_source_views)
    (List.assoc "cross" r.Core.Engine.final_mvs)

let fetch_join_anomalous_under_races () =
  (* insert emp[8,_] and cust[8,_] concurrently: each update's fetch of
     the OTHER source's relation is answered after both inserts, so both
     deltas observe the join partner and the tuple is double-counted. *)
  let updates = [ ins "emp" [ 8; 10 ]; ins "cust" [ 8; 1 ] ] in
  let r = run_cross ~schedule:S.Worst_case updates in
  let report = List.assoc "cross" r.Core.Engine.reports in
  check_bool "not even weakly consistent" false
    report.Core.Consistency.weakly_consistent;
  check_bag "the racing tuple is double-counted"
    (R.Bag.add ~count:2 (R.Tuple.ints [ 8; 1 ])
       (bag [ [ 8; 2 ] ]))
    (List.assoc "cross" r.Core.Engine.final_mvs)

let duplicate_ownership_rejected () =
  match
    Core.Engine.run
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(fed_sites [ ("a", None, hr_db ()); ("b", None, hr_db ()) ])
      ~views:(defs [ v_hr ]) ~updates:[] ()
  with
  | exception Core.Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected Engine_error"

let federation_prop =
  QCheck.Test.make ~name:"random federated streams stay strongly consistent"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int st (List.length l)) in
      (* random applicable inserts over both sources *)
      let updates =
        List.init 10 (fun i ->
            match pick [ "emp"; "dept"; "ord"; "cust" ] with
            | "emp" -> ins "emp" [ 100 + i; pick [ 10; 20 ] ]
            | "dept" -> ins "dept" [ 100 + i; i ]
            | "ord" -> ins "ord" [ 200 + i; pick [ 7; 8 ] ]
            | _ -> ins "cust" [ 300 + i; i ])
      in
      let r =
        run ~schedule:(S.Random seed) ~updates "eca"
      in
      List.for_all
        (fun (name, (report : Core.Consistency.report)) ->
          report.Core.Consistency.strongly_consistent
          && R.Bag.equal
               (List.assoc name r.Core.Engine.final_mvs)
               (List.assoc name r.Core.Engine.final_source_views))
        r.Core.Engine.reports)

let deferred_timing_flushes_at_quiescence () =
  (* the quiesce probe must flush warehouse-side buffers over several
     sources, exactly as over one *)
  let r =
    Core.Engine.run ~schedule:S.Worst_case
      ~creator:
        (Core.Timing.creator Core.Timing.Deferred
           (Core.Registry.creator_exn "eca"))
      ~sites:(fed_sites (sources ()))
      ~views:(defs [ v_hr; v_sales ])
      ~updates ()
  in
  List.iter
    (fun (name, (report : Core.Consistency.report)) ->
      check_bool (name ^ " converges via the probe") true
        report.Core.Consistency.convergent;
      check_bag (name ^ " matches its source")
        (List.assoc name r.Core.Engine.final_source_views)
        (List.assoc name r.Core.Engine.final_mvs))
    r.Core.Engine.reports

let suite =
  [
    Alcotest.test_case "deferred timing flushes at quiescence" `Quick
      deferred_timing_flushes_at_quiescence;
    Alcotest.test_case "ECA per view suffices across sources" `Quick
      eca_per_view_is_enough;
    Alcotest.test_case "updates route to their owners" `Quick
      updates_route_to_owners;
    Alcotest.test_case "basic is still anomalous" `Quick
      basic_still_anomalous_across_sources;
    Alcotest.test_case "cross-source views rejected" `Quick
      cross_source_views_rejected;
    Alcotest.test_case "fetch-join converges when drained" `Quick
      fetch_join_converges_when_drained;
    Alcotest.test_case "fetch-join anomalous under races" `Quick
      fetch_join_anomalous_under_races;
    Alcotest.test_case "duplicate ownership rejected" `Quick
      duplicate_ownership_rejected;
  ]
  @ [ QCheck_alcotest.to_alcotest federation_prop ]
