(* Workload generation: determinism, statistical targets, and update
   applicability. *)

open Helpers
module R = Relational
module W = Workload

let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:30 ~seed:5 ()

let deterministic () =
  let a = W.Scenarios.example6 spec and b = W.Scenarios.example6 spec in
  check_bool "same db for same seed" true (R.Db.equal a.W.Scenarios.db b.W.Scenarios.db);
  check_bool "same updates for same seed" true
    (List.for_all2 R.Update.equal a.W.Scenarios.updates b.W.Scenarios.updates);
  let c = W.Scenarios.example6 (W.Spec.make ~c:100 ~j:4 ~k_updates:30 ~seed:6 ()) in
  check_bool "different seed differs" false
    (R.Db.equal a.W.Scenarios.db c.W.Scenarios.db)

let cardinalities () =
  let { W.Scenarios.db; _ } = W.Scenarios.example6 spec in
  List.iter
    (fun rel -> check_int (rel ^ " has C tuples") 100 (Storage.Stats.cardinality db rel))
    [ "r1"; "r2"; "r3" ]

let join_factor_target () =
  let { W.Scenarios.db; _ } = W.Scenarios.example6 spec in
  let j12 = Storage.Stats.join_factor db "r2" "X" in
  let j23 = Storage.Stats.join_factor db "r3" "Y" in
  check_bool "J(r2,X) near 4" true (j12 > 2.5 && j12 < 6.0);
  check_bool "J(r3,Y) near 4" true (j23 > 2.5 && j23 < 6.0)

let updates_apply_cleanly () =
  let { W.Scenarios.db; updates; _ } =
    W.Scenarios.example6
      (W.Spec.make ~c:20 ~j:4 ~k_updates:40 ~insert_ratio:0.5 ~seed:9 ())
  in
  (* strict application must succeed: deletes always target live tuples *)
  ignore (R.Db.apply_all db updates)

let round_robin_relations () =
  let { W.Scenarios.updates; _ } =
    W.Scenarios.example6 (W.Spec.make ~c:10 ~j:2 ~k_updates:6 ~seed:1 ())
  in
  Alcotest.(check (list string))
    "relations cycle"
    [ "r1"; "r2"; "r3"; "r1"; "r2"; "r3" ]
    (List.map (fun (u : R.Update.t) -> u.R.Update.rel) updates)

let keyed_scenario_covers_keys () =
  let { W.Scenarios.view; db; updates } = W.Scenarios.keyed spec in
  check_bool "view covers all keys" true (R.View.covers_all_keys view);
  ignore (R.Db.apply_all db updates);
  (* keys are genuinely unique in the generated data *)
  let ws = Hashtbl.create 64 in
  R.Bag.iter
    (fun t n ->
      let w = R.Tuple.get t 0 in
      check_int "single copy" 1 n;
      check_bool "unique W" false (Hashtbl.mem ws w);
      Hashtbl.replace ws w ())
    (R.Db.contents db "r1")

let keyed_inserts_use_fresh_keys () =
  let spec = W.Spec.make ~c:5 ~j:2 ~k_updates:10 ~seed:3 () in
  let { W.Scenarios.db; updates; _ } = W.Scenarios.keyed spec in
  let final = R.Db.apply_all db updates in
  check_bool "r1 keys still unique" true
    (R.Bag.is_set (R.Db.contents final "r1"))

let spec_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (fun () -> W.Spec.make ~c:(-1) ());
      (fun () -> W.Spec.make ~j:0 ());
      (fun () -> W.Spec.make ~insert_ratio:2.0 ());
      (fun () -> W.Spec.make ~value_range:1 ());
    ]

let scenario_catalogs () =
  let c1 = W.Scenarios.catalog_scenario1 () in
  let c2 = W.Scenarios.catalog_scenario2 () in
  check_bool "scenario 1 has indexes" true (List.length c1.Storage.Catalog.indexes = 4);
  check_bool "scenario 2 has none" true (c2.Storage.Catalog.indexes = []);
  check_bool "modes differ" true (c1.Storage.Catalog.mode <> c2.Storage.Catalog.mode)

let pick_existing_uniformity () =
  let { W.Scenarios.db; _ } =
    W.Scenarios.example6 (W.Spec.make ~c:10 ~j:2 ~seed:2 ())
  in
  let st = rng 7 in
  for _ = 1 to 50 do
    match W.Generator.pick_existing st db "r1" with
    | Some t -> check_bool "picked a live tuple" true
                  (R.Bag.mem t (R.Db.contents db "r1"))
    | None -> Alcotest.fail "r1 is non-empty"
  done;
  let empty_db = db_of [ (r1, []) ] in
  check_bool "empty relation yields None" true
    (Option.is_none (W.Generator.pick_existing st empty_db "r1"))

let zipf_sampling () =
  let st = rng 3 in
  let n = 10 in
  let counts = Array.make n 0 in
  for _ = 1 to 5000 do
    let v = W.Generator.zipf_below ~skew:1.2 st n in
    check_bool "in range" true (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  check_bool "rank 0 dominates rank 9" true (counts.(0) > 3 * counts.(9));
  check_bool "monotone-ish head" true (counts.(0) > counts.(4));
  (* zero skew behaves uniformly *)
  let st = rng 4 in
  let u = Array.make n 0 in
  for _ = 1 to 5000 do
    let v = W.Generator.zipf_below ~skew:0.0 st n in
    u.(v) <- u.(v) + 1
  done;
  Array.iter (fun c -> check_bool "roughly uniform" true (c > 300 && c < 700)) u;
  check_int "degenerate domain" 0 (W.Generator.zipf_below ~skew:1.0 st 0)

let skewed_workloads_still_run () =
  let spec = W.Spec.make ~c:40 ~j:4 ~k_updates:10 ~skew:1.5 ~seed:6 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let r =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  check_bool "strongly consistent under skew" true
    (List.assoc "V" r.Core.Engine.reports).Core.Consistency.strongly_consistent;
  (* skew must raise the hottest value's fan-out above the uniform J *)
  let hottest rel attr =
    let schema = R.Db.schema db rel in
    let i = Option.get (R.Schema.column_index schema attr) in
    let tbl = Hashtbl.create 16 in
    R.Bag.iter
      (fun t n ->
        let v = R.Tuple.get t i in
        Hashtbl.replace tbl v (n + Option.value (Hashtbl.find_opt tbl v) ~default:0))
      (R.Db.contents db rel);
    Hashtbl.fold (fun _ n acc -> max n acc) tbl 0
  in
  check_bool "hot value exceeds uniform J" true (hottest "r2" "X" > 4);
  (match W.Spec.make ~skew:(-1.0) () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative skew accepted")

let suite =
  [
    Alcotest.test_case "zipf sampling" `Quick zipf_sampling;
    Alcotest.test_case "skewed workloads run correctly" `Quick
      skewed_workloads_still_run;
    Alcotest.test_case "deterministic generation" `Quick deterministic;
    Alcotest.test_case "cardinalities" `Quick cardinalities;
    Alcotest.test_case "join-factor target" `Quick join_factor_target;
    Alcotest.test_case "updates apply cleanly" `Quick updates_apply_cleanly;
    Alcotest.test_case "round-robin relations" `Quick round_robin_relations;
    Alcotest.test_case "keyed scenario covers keys" `Quick
      keyed_scenario_covers_keys;
    Alcotest.test_case "keyed inserts use fresh keys" `Quick
      keyed_inserts_use_fresh_keys;
    Alcotest.test_case "spec validation" `Quick spec_validation;
    Alcotest.test_case "scenario catalogs" `Quick scenario_catalogs;
    Alcotest.test_case "pick_existing" `Quick pick_existing_uniformity;
  ]
