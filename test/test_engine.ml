(* The site-graph engine's new capabilities: multi-site scheduling,
   per-edge faults + reliable delivery over a federation, and the
   cross-source anomaly witnesses the unified trace makes observable.

   Byte-equivalence of the engine with the historical drivers is pinned
   separately by test_golden.ml; this file covers what the old drivers
   could not do at all. *)

open Helpers
module R = Relational
module S = Core.Scheduler

(* ------------------------------------------------------------------ *)
(* Multi-site round-robin rotation (regression, cf. the PR-2 pick fix)  *)
(* ------------------------------------------------------------------ *)

let event_name = function
  | S.Apply -> "A"
  | S.Site_source i -> Printf.sprintf "S%d" i
  | S.Site_warehouse i -> Printf.sprintf "W%d" i

let picks sched ms =
  List.map
    (fun m ->
      match S.pick_multi sched m with
      | Some ev -> event_name ev
      | None -> "-")
    ms

let multi ~update sources warehouses =
  {
    S.update_ready = update;
    source_ready = Array.of_list sources;
    warehouse_ready = Array.of_list warehouses;
  }

let round_robin_rotates_over_sites () =
  (* The fixed event order over two sites is A, S0, W0, S1, W1. With
     everything enabled the cursor must walk it cyclically. *)
  let sched = S.create S.Round_robin in
  let all = multi ~update:true [ true; true ] [ true; true ] in
  Alcotest.(check (list string))
    "full rotation, twice around"
    [ "A"; "S0"; "W0"; "S1"; "W1"; "A"; "S0"; "W0"; "S1"; "W1" ]
    (picks sched (List.init 10 (fun _ -> all)))

let round_robin_skips_disabled_without_stalling () =
  (* The cursor indexes the fixed order, not the filtered enabled list —
     otherwise disabled events would freeze the rotation (the multi-site
     analog of the single-site Scheduler.pick regression from PR 2). *)
  let sched = S.create S.Round_robin in
  let no_s0 = multi ~update:true [ false; true ] [ true; true ] in
  Alcotest.(check (list string))
    "S0 disabled: rotation advances over it"
    [ "A"; "W0"; "S1"; "W1"; "A"; "W0" ]
    (picks sched (List.init 6 (fun _ -> no_s0)));
  let none = multi ~update:false [ false; false ] [ false; false ] in
  Alcotest.(check (list string)) "nothing enabled" [ "-" ] (picks sched [ none ])

(* Two sources, each owning its own relations. *)
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
  R.Db.of_list [ (ord, bag [ [ 100; 7 ] ]); (cust, bag [ [ 7; 1 ]; [ 8; 2 ] ]) ]

let v_hr =
  R.View.natural_join ~name:"emp_budget"
    ~proj:[ R.Attr.unqualified "EID"; R.Attr.unqualified "BUDGET" ]
    [ emp; dept ]

let v_sales =
  R.View.natural_join ~name:"ord_segment"
    ~proj:[ R.Attr.unqualified "OID"; R.Attr.unqualified "SEGMENT" ]
    [ ord; cust ]

let two_sources () = [ ("hr", None, hr_db ()); ("sales", None, sales_db ()) ]

let two_source_updates =
  [
    ins "emp" [ 3; 20 ];
    ins "ord" [ 101; 8 ];
    del "emp" [ 1; 10 ];
    ins "cust" [ 9; 3 ];
  ]

(* ------------------------------------------------------------------ *)
(* The federated trace: per-source state sequences                      *)
(* ------------------------------------------------------------------ *)

let federated_trace_is_per_source () =
  let result =
    Core.Engine.run ~schedule:S.Best_case
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(fed_sites (two_sources ()))
      ~views:(defs [ v_hr; v_sales ])
      ~updates:two_source_updates ()
  in
  (* Two hr updates and one sales-side cust update affect the two views:
     each view's source-state sequence advances only on its own source's
     updates (initial state + one per owning-site update). *)
  check_int "hr view: initial + its 2 updates" 3
    (List.length
       (Core.Trace.source_states result.Core.Engine.trace "emp_budget"));
  check_int "sales view: initial + its 2 updates" 3
    (List.length
       (Core.Trace.source_states result.Core.Engine.trace "ord_segment"));
  check_bool "every view strongly consistent under best-case" true
    (List.for_all
       (fun (_, r) -> r.Core.Consistency.strongly_consistent)
       result.Core.Engine.reports);
  check_int "no negative installs" 0
    (List.length result.Core.Engine.negative_installs)

(* ------------------------------------------------------------------ *)
(* Cross-source fetch-join: a state corresponding to no global snapshot *)
(* ------------------------------------------------------------------ *)

let v_cross =
  R.View.make ~name:"cross"
    ~proj:[ R.Attr.qualified "emp" "EID"; R.Attr.qualified "cust" "SEGMENT" ]
    ~cond:(R.Predicate.eq_attrs "emp.EID" "cust.CID")
    [ emp; cust ]

let cross_source_installs_no_global_snapshot () =
  (* Racing inserts on two sources: emp(8,10) at hr and cust(8,1) at
     sales both join into the cross view. Under worst-case, each
     insert's fetch query is answered against a state that already
     contains the other insert, so the effect is counted twice: the
     warehouse installs {(8,1)↦2, …} — a bag that is not the view's value
     at any global snapshot. The federated trace now records both state
     sequences, making the anomaly a checkable witness instead of a
     remark in the docs. *)
  let result =
    Core.Engine.run ~schedule:S.Worst_case ~allow_cross_source:true
      ~creator:(Core.Registry.creator_exn "fetch-join")
      ~sites:(fed_sites (two_sources ()))
      ~views:(defs [ v_cross ])
      ~updates:[ ins "emp" [ 8; 10 ]; ins "cust" [ 8; 1 ] ]
      ()
  in
  let trace = result.Core.Engine.trace in
  let source_states = Core.Trace.source_states trace "cross" in
  let warehouse_states = Core.Trace.warehouse_states trace "cross" in
  check_bool "witness: an installed state equals no global snapshot" true
    (List.exists
       (fun w -> not (List.exists (R.Bag.equal w) source_states))
       warehouse_states);
  let report = List.assoc "cross" result.Core.Engine.reports in
  check_bool "verdict: not even convergent" false
    report.Core.Consistency.convergent;
  (* the double-count is an over-insertion, not an over-deletion *)
  check_int "no negative installs" 0
    (List.length result.Core.Engine.negative_installs);
  check_bag "final view double-counts the racing pair"
    (R.Bag.of_list
       [ R.Tuple.ints [ 8; 1 ]; R.Tuple.ints [ 8; 1 ]; R.Tuple.ints [ 8; 2 ] ])
    (List.assoc "cross" result.Core.Engine.final_mvs)

(* ------------------------------------------------------------------ *)
(* 3-source federation × fault profiles × reliable delivery vs oracle  *)
(* ------------------------------------------------------------------ *)

(* Three independent copies of the generated scenarios, one per source,
   with relations renamed apart (sources must own disjoint schemas). *)

let prefix_schema p (s : R.Schema.t) =
  R.Schema.make ~key:s.R.Schema.key (p ^ s.R.Schema.name) s.R.Schema.columns

let prefix_db p db =
  List.fold_left
    (fun acc rel ->
      R.Db.add_relation ~contents:(R.Db.contents db rel) acc
        (prefix_schema p (R.Db.schema db rel)))
    R.Db.empty (R.Db.relation_names db)

let prefix_updates p us =
  List.map
    (fun (u : R.Update.t) -> { u with R.Update.rel = p ^ u.R.Update.rel })
    us

(* Example 6's chain view over the renamed relations. *)
let chain_view p =
  R.View.natural_join
    ~name:(p ^ "V")
    ~extra_cond:
      (R.Predicate.Cmp
         ( R.Predicate.Gt,
           R.Predicate.Col (R.Attr.qualified (p ^ "r1") "W"),
           R.Predicate.Col (R.Attr.qualified (p ^ "r3") "Z") ))
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r3") "Z" ]
    (List.map (prefix_schema p) Workload.Generator.chain_schemas)

(* The keyed two-relation view (covers both keys, so ECAK applies). *)
let keyed_view p =
  R.View.natural_join
    ~name:(p ^ "VK")
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r2") "Y" ]
    (List.map (prefix_schema p) Workload.Generator.keyed_schemas)

(* Strict round-robin interleaving of the per-site streams, so updates of
   different sources race at every point of the run. *)
let rec interleave lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)

let fed_scenario ~kind ~seed =
  let mk i p =
    let spec =
      Workload.Spec.make ~c:10 ~j:3 ~k_updates:6 ~insert_ratio:0.5
        ~seed:(seed + (31 * i))
        ()
    in
    match kind with
    | `Chain ->
      let { Workload.Scenarios.db; view = _; updates } =
        Workload.Scenarios.example6 spec
      in
      (prefix_db p db, chain_view p, prefix_updates p updates)
    | `Keyed ->
      let { Workload.Scenarios.db; view = _; updates } =
        Workload.Scenarios.keyed spec
      in
      (prefix_db p db, keyed_view p, prefix_updates p updates)
  in
  let parts = List.mapi mk [ "a_"; "b_"; "c_" ] in
  ( List.mapi (fun i (db, _, _) -> (Printf.sprintf "s%d" i, None, db)) parts,
    List.map (fun (_, v, _) -> v) parts,
    interleave (List.map (fun (_, _, us) -> us) parts),
    List.map
      (fun (db, (v : R.View.t), us) ->
        (v.R.View.name, R.Eval.view (R.Db.apply_all db us) v))
      parts )

let run_fed ?fault ?(reliable = false) ~algorithm ~kind ~seed () =
  let sources, views, updates, truths = fed_scenario ~kind ~seed in
  let result =
    Core.Engine.run ~schedule:(S.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:(fed_sites ?fault ~fault_seed:(seed * 7) ~reliable sources)
      ~views:(defs views) ~updates ()
  in
  let ok =
    List.for_all
      (fun (name, truth) ->
        R.Bag.equal truth (List.assoc name result.Core.Engine.final_mvs))
      truths
  in
  (ok, result)

let seeds = List.init 40 (fun i -> i)

let family_correct_over_federated_reliable_faults () =
  (* ECA / ECAK / ECAL over a 3-source federation, every fault profile,
     reliable delivery, 40 seeds — the federated mirror of
     test_reliable's single-source sweep. Cells are independent; fan the
     whole matrix over the domain pool, then check sequentially. *)
  let cells =
    List.concat_map
      (fun (algorithm, kind) ->
        List.concat_map
          (fun (profile, fault) ->
            List.map (fun seed -> (algorithm, kind, profile, fault, seed)) seeds)
          Workload.Scenarios.fault_profiles)
      [ ("eca", `Chain); ("eca-local", `Chain); ("eca-key", `Keyed) ]
  in
  let swept =
    par_map
      (fun (algorithm, kind, profile, fault, seed) ->
        let ok, (result : Core.Engine.result) =
          run_fed ~fault ~reliable:true ~algorithm ~kind ~seed ()
        in
        let m = result.Core.Engine.metrics in
        ( (algorithm, profile, seed),
          ok,
          m.Core.Metrics.delivery,
          List.length m.Core.Metrics.site_delivery ))
      cells
  in
  let retransmits = ref 0 and dups = ref 0 and dropped = ref 0 in
  List.iter
    (fun ((algorithm, profile, seed), ok, d, edges) ->
      retransmits := !retransmits + d.Core.Metrics.retransmits;
      dups := !dups + d.Core.Metrics.dups_dropped;
      dropped := !dropped + d.Core.Metrics.msgs_dropped;
      check_int
        (Printf.sprintf "%s/%s seed %d: one delivery entry per edge"
           algorithm profile seed)
        3 edges;
      check_bool
        (Printf.sprintf
           "%s over 3-source %s + reliable matches oracle (seed %d)"
           algorithm profile seed)
        true ok)
    swept;
  (* The faults must actually have fired, or the passes prove nothing. *)
  check_bool "losses occurred" true (!dropped > 0);
  check_bool "retransmissions occurred" true (!retransmits > 0);
  check_bool "duplicates were dropped" true (!dups > 0)

let chaos_without_reliable_still_breaks_federated_eca () =
  let broken =
    List.exists not
      (par_map
         (fun seed ->
           fst
             (run_fed ~fault:Workload.Scenarios.chaos_profile ~algorithm:"eca"
                ~kind:`Chain ~seed ()))
         seeds)
  in
  check_bool "raw chaos edges break federated ECA somewhere" true broken

let suite =
  [
    Alcotest.test_case "multi-site round-robin rotation" `Quick
      round_robin_rotates_over_sites;
    Alcotest.test_case "round-robin skips disabled events" `Quick
      round_robin_skips_disabled_without_stalling;
    Alcotest.test_case "federated trace is per-source" `Quick
      federated_trace_is_per_source;
    Alcotest.test_case "cross-source install has no global snapshot" `Quick
      cross_source_installs_no_global_snapshot;
    Alcotest.test_case
      "ECA family over 3-source reliable faults = oracle (40 seeds)" `Quick
      family_correct_over_federated_reliable_faults;
    Alcotest.test_case "chaos without the sublayer breaks federated ECA"
      `Quick chaos_without_reliable_still_breaks_federated_eca;
  ]
