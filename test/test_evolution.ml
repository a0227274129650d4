(* Online schema evolution (DESIGN.md §4k): the Evolve rewrites, the
   ALTER TABLE script syntax, DDL notifications flowing through the
   engine (rebuild-as-refresh at the warehouse, tombstoned in-flight
   queries, stale answers at the source), the windowed-view layer, and
   the satellite regressions of PR 10 (warehouse unknown-answer anomaly,
   generator key arithmetic, seed-pinned RNG order, selfmaint column
   lookups). *)

open Helpers
module R = Relational

let spec ?(c = 8) ?(k_updates = 16) ?(insert_ratio = 0.6) ?(seed = 3) () =
  Workload.Spec.make ~c ~j:2 ~k_updates ~insert_ratio ~seed ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The oracle weave, mirroring the engine's: a DDL at position [p] fires
   once [p] updates have been applied, before the next one. *)
let final_db_of db updates ddls =
  let fire db ddls applied =
    let now, later = List.partition (fun (p, _) -> p <= applied) ddls in
    (List.fold_left (fun db (_, d) -> R.Evolve.db db d) db now, later)
  in
  let rec go db applied ups ddls =
    let db, ddls = fire db ddls applied in
    match ups with
    | [] -> fst (fire db ddls max_int)
    | u :: rest -> go (R.Db.apply db u) (applied + 1) rest ddls
  in
  go db 0 updates ddls

let final_viewdef_of vd ddls =
  List.fold_left
    (fun vd (_, d) -> if R.Evolve.affects vd d then R.Evolve.viewdef vd d else vd)
    vd ddls

let evolution_metrics (result : Core.Engine.result) =
  match result.Core.Engine.metrics.Core.Metrics.evolution with
  | Some e -> e
  | None -> Alcotest.fail "run reported no evolution metrics"

(* ------------------------------------------------------------------ *)
(* Evolve unit semantics                                               *)
(* ------------------------------------------------------------------ *)

let add_col rel col default =
  R.Update.Add_column
    { rel; col; ty = R.Value.Tint; default = R.Value.Int default }

let schema_roundtrip () =
  let s = R.Schema.of_names ~key:[ "W" ] "r" [ "W"; "X" ] in
  let s' = R.Evolve.schema s (add_col "r" "N" 7) in
  check_int "arity grew" 3 (R.Schema.arity s');
  let s'' = R.Evolve.schema s' (R.Update.Drop_column { rel = "r"; col = "N" }) in
  Alcotest.(check bool) "add; drop = identity" true (s = s'');
  (* untargeted relations pass through untouched *)
  Alcotest.(check bool) "other relation untouched" true
    (R.Evolve.schema s (add_col "other" "N" 0) == s)

let restrict_rules () =
  let r2 = R.Schema.of_names ~key:[ "X" ] "r2" [ "X"; "Y" ] in
  let r1 =
    R.Schema.of_names ~key:[ "W" ]
      ~fks:[ { R.Schema.fk_cols = [ "X" ]; fk_ref = "r2"; fk_ref_cols = [ "X" ] } ]
      "r1" [ "W"; "X" ]
  in
  let raises f =
    match f () with
    | exception R.Evolve.Evolve_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "cannot drop a key column" true
    (raises (fun () ->
         R.Evolve.schema r1 (R.Update.Drop_column { rel = "r1"; col = "W" })));
  Alcotest.(check bool) "cannot drop an FK column" true
    (raises (fun () ->
         R.Evolve.schema r1 (R.Update.Drop_column { rel = "r1"; col = "X" })));
  let db = db_of [ (r2, [ [ 1; 10 ] ]); (r1, [ [ 5; 1 ] ]) ] in
  Alcotest.(check bool) "cannot drop an FK-referenced column" true
    (raises (fun () ->
         R.Evolve.db db (R.Update.Drop_column { rel = "r2"; col = "X" })));
  let v = view_wy ~r1:r1_wkey ~r2:r2_ykey () in
  Alcotest.(check bool) "cannot drop a view-referenced column" true
    (raises (fun () ->
         R.Evolve.viewdef (R.Viewdef.simple v)
           (R.Update.Drop_column { rel = "r2"; col = "Y" })))

let db_backfill_and_key_validation () =
  let r = R.Schema.of_names "r" [ "A"; "B" ] in
  let db = db_of [ (r, [ [ 1; 2 ]; [ 1; 3 ] ]) ] in
  let db' = R.Evolve.db db (add_col "r" "N" 7) in
  R.Bag.iter
    (fun t _ -> check_int "backfilled default" 7
        (match R.Tuple.get t 2 with R.Value.Int n -> n | _ -> -1))
    (R.Db.contents db' "r");
  (* A repeats, so promoting it to a key must be rejected against the
     current contents. *)
  Alcotest.(check bool) "key change re-validates contents" true
    (match R.Evolve.db db (R.Update.Key_change { rel = "r"; key = [ "A" ] }) with
     | exception R.Evolve.Evolve_error _ -> true
     | exception R.Db.Db_error _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* ALTER TABLE in the script syntax                                    *)
(* ------------------------------------------------------------------ *)

let alter_script =
  {|
  TABLE r1 (W INT KEY, X INT);
  TABLE r2 (X INT, Y INT KEY);
  VIEW v AS SELECT r1.W, r2.Y FROM r1, r2 WHERE r1.X = r2.X;
  INSERT INTO r1 VALUES (1, 2);
  UPDATES;
  INSERT INTO r2 VALUES (2, 5);
  ALTER TABLE r2 ADD COLUMN n INT DEFAULT 7;
  INSERT INTO r2 VALUES (3, 6, 9);
  ALTER TABLE r2 DROP COLUMN n;
  ALTER TABLE r1 DROP KEY;
  ALTER TABLE r1 KEY (W);
  |}

let parse_alter () =
  let s = R.Parser.parse_script alter_script in
  check_int "two updates" 2 (List.length s.R.Script.updates);
  check_int "four schema changes" 4 (List.length s.R.Script.ddls);
  Alcotest.(check (list int)) "stream positions" [ 1; 2; 2; 2 ]
    (List.map fst s.R.Script.ddls);
  (match s.R.Script.ddls with
   | (_, R.Update.Add_column { rel; col; default; _ }) :: _ ->
     Alcotest.(check string) "target relation" "r2" rel;
     Alcotest.(check string) "column" "n" col;
     Alcotest.(check bool) "default" true (default = R.Value.Int 7)
   | _ -> Alcotest.fail "first DDL is not the ADD COLUMN");
  (match List.rev s.R.Script.ddls with
   | (_, R.Update.Key_change { key; _ }) :: (_, R.Update.Key_change { key = []; _ }) :: _ ->
     Alcotest.(check (list string)) "restored key" [ "W" ] key
   | _ -> Alcotest.fail "trailing DDLs are not the key changes")

let parse_alter_errors () =
  let bad src =
    match R.Parser.parse_script src with
    | exception R.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "ALTER before UPDATES rejected" true
    (bad "TABLE r (A INT);\nALTER TABLE r DROP COLUMN a;\nUPDATES;");
  Alcotest.(check bool) "mistyped default rejected" true
    (bad "TABLE r (A INT);\nUPDATES;\nALTER TABLE r ADD COLUMN b INT DEFAULT 'x';");
  Alcotest.(check bool) "unknown ALTER form rejected" true
    (bad "TABLE r (A INT);\nUPDATES;\nALTER TABLE r RENAME a;")

(* ------------------------------------------------------------------ *)
(* Engine integration: DDL notes through the event loop                *)
(* ------------------------------------------------------------------ *)

let run_evolution ?fault ?fault_seed ?reliable ?(algorithm = "eca") ~seed () =
  let { Workload.Scenarios.db; view; updates; ddls } =
    Workload.Scenarios.evolution (spec ~seed ())
  in
  let result =
    Core.Engine.run
      ~schedule:(Core.Scheduler.Random seed)
      ~creator:(Core.Registry.creator_exn algorithm)
      ~evolution:ddls
      ~sites:[ Core.Engine.site ?fault ?fault_seed ?reliable ~name:"source" db ]
      ~views:(defs [ view ]) ~updates ()
  in
  let truth =
    R.Viewdef.eval (final_db_of db updates ddls)
      (final_viewdef_of (R.Viewdef.simple view) ddls)
  in
  (result, truth)

let clean_run_matches_oracle () =
  let result, truth = run_evolution ~seed:1 () in
  check_bag "final MV = evolved-schema recompute" truth (final_mv result "VK");
  let rep = report result "VK" in
  check_bool "consistent across the DDL boundary" true rep.Core.Consistency.consistent;
  check_bool "convergent" true rep.Core.Consistency.convergent;
  let e = evolution_metrics result in
  check_int "all three DDLs applied" 3 e.Core.Metrics.ddl_applied;
  check_bool "the view was rebuilt" true (e.Core.Metrics.views_rebuilt >= 3);
  check_bool "rebuilds issued refresh queries" true
    (e.Core.Metrics.refresh_queries >= e.Core.Metrics.views_rebuilt)

(* The §3.1 rung that survives online schema changes on FIFO edges, and
   the pinned tombstone budget: a Ddl_note precedes every answer the
   retired queries can still produce (same FIFO edge), so by quiescence
   every stale answer has met its tombstone — none may remain
   unabsorbed. *)
let stale_quiesce_max = 0

let sweep_seeds = List.init 40 (fun i -> i)

(* The sweeps run on the domain pool; each cell's checks run afterwards in
   the calling domain, in seed order. *)
let check_sweep_cell label (seed, (result, truth)) =
  let msg what = Printf.sprintf "%s seed %d: %s" label seed what in
  let rep = report result "VK" in
  let e = evolution_metrics result in
  check_bool (msg "oracle") true (R.Bag.equal truth (final_mv result "VK"));
  check_bool (msg "consistent") true rep.Core.Consistency.consistent;
  check_bool (msg "convergent") true rep.Core.Consistency.convergent;
  check_bool (msg "stale answers absorbed") true
    (e.Core.Metrics.stale_answers - e.Core.Metrics.retired_answers
    <= stale_quiesce_max)

let surviving_rung_sweep () =
  List.iter (check_sweep_cell "clean")
    (par_map (fun seed -> (seed, run_evolution ~seed ())) sweep_seeds)

let reliable_chaos_sweep () =
  List.iter
    (check_sweep_cell "reliable")
    (par_map
       (fun seed ->
         ( seed,
           run_evolution ~fault:Workload.Scenarios.chaos_profile
             ~fault_seed:(seed * 11) ~reliable:true ~seed () ))
       sweep_seeds)

(* Raw faulty channels reorder the Ddl_note against the answers it is
   meant to precede, so the survival argument's premise fails — and with
   it, somewhere in the sweep, the conclusion. The witness documents
   that FIFO is load-bearing, exactly as for plain ECA. *)
let raw_chaos_breaks_somewhere () =
  let broken =
    List.exists not
      (par_map
         (fun seed ->
           let result, truth =
             run_evolution ~fault:Workload.Scenarios.chaos_profile
               ~fault_seed:(seed * 11) ~seed ()
           in
           R.Bag.equal truth (final_mv result "VK"))
         sweep_seeds)
  in
  check_bool "raw chaos breaks the DDL protocol somewhere" true broken

let no_ddl_run_is_byte_identical () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed (spec ~seed:5 ())
  in
  let go evolution =
    Core.Engine.run ?evolution ~schedule:(Core.Scheduler.Random 5)
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  let plain = go None and empty = go (Some []) in
  Alcotest.(check string) "metrics render byte-identical"
    (Format.asprintf "%a" Core.Metrics.pp plain.Core.Engine.metrics)
    (Format.asprintf "%a" Core.Metrics.pp empty.Core.Engine.metrics);
  Alcotest.(check bool) "no evolution block without DDLs" true
    (empty.Core.Engine.metrics.Core.Metrics.evolution = None);
  check_bag "same final MV" (final_mv plain "VK") (final_mv empty "VK");
  Alcotest.(check bool) "same reports" true
    (plain.Core.Engine.reports = empty.Core.Engine.reports)

(* ------------------------------------------------------------------ *)
(* Windowed views                                                      *)
(* ------------------------------------------------------------------ *)

(* VW = π_{X,Y}(r2) windowed on Y, k = 2 — small enough to hand-check.
   Initial Y ∈ {1,2,3}; the stream appends Y = 4 then 5, so the final
   window keeps Y ∈ {4,5} and partitions 1..3 have aged out. *)
let hand_window () =
  let r2 = R.Schema.of_names ~key:[ "Y" ] "r2" [ "X"; "Y" ] in
  let view =
    R.View.natural_join ~name:"VW"
      ~proj:[ R.Attr.qualified "r2" "X"; R.Attr.qualified "r2" "Y" ]
      [ r2 ]
  in
  let db = db_of [ (r2, [ [ 10; 1 ]; [ 20; 2 ]; [ 30; 3 ] ]) ] in
  let updates = [ ins "r2" [ 40; 4 ]; ins "r2" [ 50; 5 ] ] in
  let result =
    Core.Engine.run ~schedule:Core.Scheduler.Best_case
      ~creator:(Core.Registry.creator_exn "eca")
      ~windows:[ ("VW", { Core.Window.rel = "r2"; col = "Y"; k = 2 }) ]
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  check_bag "only the two newest partitions are visible"
    (bag [ [ 40; 4 ]; [ 50; 5 ] ])
    (final_mv result "VW");
  let rep = report result "VW" in
  check_bool "windowed run is consistent" true rep.Core.Consistency.consistent;
  check_bool "windowed run is convergent" true rep.Core.Consistency.convergent;
  let e = evolution_metrics result in
  check_bool "partitions aged out" true (e.Core.Metrics.win_aged_partitions > 0)

let windowed_keyed_run ?shard ~k ~seed () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed (spec ~seed ())
  in
  let window = { Core.Window.rel = "r2"; col = "Y"; k } in
  let result =
    Core.Engine.run ?shard ~schedule:(Core.Scheduler.Random seed)
      ~creator:(Core.Registry.creator_exn "eca")
      ~windows:[ ("VK", window) ]
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  (* Independent expectation: replay the watermark protocol over the
     final full view. *)
  let vd = R.Viewdef.simple view in
  let st = Core.Window.make window vd in
  Core.Window.init_watermark st (R.Viewdef.eval db vd);
  List.iter (Core.Window.observe_update st) updates;
  let truth = Core.Window.filter st (R.Viewdef.eval (R.Db.apply_all db updates) vd) in
  (result, truth)

let windowed_matches_oracle () =
  List.iter
    (fun seed ->
      let result, truth = windowed_keyed_run ~k:4 ~seed () in
      check_bag
        (Printf.sprintf "windowed MV = windowed recompute (seed %d)" seed)
        truth (final_mv result "VK");
      let rep = report result "VK" in
      check_bool "consistent" true rep.Core.Consistency.consistent)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Delete-heavy streams reach back into aged-out partitions: the window
   wrapper must prune those compensation terms — and answer entirely
   pruned queries locally — instead of shipping them to the source. *)
let window_pruning_fires () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed (spec ~k_updates:20 ~insert_ratio:0.35 ~seed:0 ())
  in
  let window = { Core.Window.rel = "r2"; col = "Y"; k = 3 } in
  let result =
    Core.Engine.run ~schedule:(Core.Scheduler.Random 0)
      ~creator:(Core.Registry.creator_exn "eca")
      ~windows:[ ("VK", window) ]
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  let vd = R.Viewdef.simple view in
  let st = Core.Window.make window vd in
  Core.Window.init_watermark st (R.Viewdef.eval db vd);
  List.iter (Core.Window.observe_update st) updates;
  let truth =
    Core.Window.filter st (R.Viewdef.eval (R.Db.apply_all db updates) vd)
  in
  check_bag "pruned run still matches windowed recompute" truth
    (final_mv result "VK");
  let e = evolution_metrics result in
  check_bool "out-of-window terms pruned" true
    (e.Core.Metrics.win_pruned_terms > 0);
  check_bool "fully pruned queries answered locally" true
    (e.Core.Metrics.win_local_answers > 0)

(* Deterministic age-out: the watermark is driven by the update stream
   and the scheduler clock, never by wall time or worker count — a
   sharded warehouse produces the identical windowed run. *)
let windowed_deterministic_at_any_par () =
  let result1, _ = windowed_keyed_run ~k:3 ~seed:9 () in
  let result2, _ = windowed_keyed_run ~k:3 ~seed:9 () in
  let result_sharded, _ =
    windowed_keyed_run ~shard:(Lazy.force Helpers.pool) ~k:3 ~seed:9 ()
  in
  let render (r : Core.Engine.result) =
    Format.asprintf "%a@.%a" Core.Metrics.pp r.Core.Engine.metrics R.Bag.pp
      (final_mv r "VK")
  in
  Alcotest.(check string) "same run twice is byte-identical" (render result1)
    (render result2);
  Alcotest.(check string) "sharded run is byte-identical" (render result1)
    (render result_sharded)

let window_validation () =
  let vd = R.Viewdef.simple (view_wy ~r1:r1_wkey ~r2:r2_ykey ()) in
  let bad spec =
    match Core.Window.make spec vd with
    | exception Core.Window.Window_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "k = 0 rejected" true
    (bad { Core.Window.rel = "r2"; col = "Y"; k = 0 });
  Alcotest.(check bool) "unprojected column rejected" true
    (bad { Core.Window.rel = "r2"; col = "X"; k = 2 });
  Alcotest.(check bool) "unknown relation rejected" true
    (bad { Core.Window.rel = "nope"; col = "Y"; k = 2 });
  (* the catalog validates eagerly too *)
  Alcotest.(check bool) "catalog rejects bad windows" true
    (match
       Core.Catalog.entry ~window:{ Core.Window.rel = "r2"; col = "X"; k = 2 } vd
     with
     | exception Core.Window.Window_error _ -> true
     | _ -> false);
  (* and the engine rejects windows for unhosted views *)
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed (spec ~seed:2 ())
  in
  Alcotest.(check bool) "window for an unknown view rejected" true
    (match
       Core.Engine.run
         ~creator:(Core.Registry.creator_exn "eca")
         ~windows:[ ("nope", { Core.Window.rel = "r2"; col = "Y"; k = 2 }) ]
         ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
     with
     | exception Core.Engine.Engine_error _ -> true
     | _ -> false)

let windowed_catalog_run () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.keyed (spec ~seed:7 ())
  in
  let entries =
    [
      Core.Catalog.entry
        ~window:{ Core.Window.rel = "r2"; col = "Y"; k = 4 }
        (R.Viewdef.simple view);
    ]
  in
  let result =
    Core.Engine.run ~share_deltas:true
      ~creator:(Core.Catalog.creator entries)
      ~sites:[ source_site db ]
      ~views:(Core.Catalog.views entries)
      ~windows:(Core.Catalog.windows entries) ~updates ()
  in
  let direct, _ = windowed_keyed_run ~k:4 ~seed:7 () in
  (* catalog runs share deltas under the Best_case schedule, so
     compare against the analytic expectation instead of the direct run. *)
  ignore direct;
  let vd = R.Viewdef.simple view in
  let st = Core.Window.make { Core.Window.rel = "r2"; col = "Y"; k = 4 } vd in
  Core.Window.init_watermark st (R.Viewdef.eval db vd);
  List.iter (Core.Window.observe_update st) updates;
  let truth =
    Core.Window.filter st (R.Viewdef.eval (R.Db.apply_all db updates) vd)
  in
  check_bag "catalog-registered window matches" truth
    (List.assoc "VK" result.Core.Engine.final_mvs)

(* ------------------------------------------------------------------ *)
(* Satellite regressions                                               *)
(* ------------------------------------------------------------------ *)

(* A stray answer (duplicate delivery after its route was consumed, or a
   corrupted gid) must surface as an anomaly, not crash the routing
   table — the [Hashtbl.find] → [find_opt] regression. *)
let unknown_answer_is_an_anomaly () =
  let vd = R.Viewdef.simple (view_wy ~r1:r1_wkey ~r2:r2_ykey ()) in
  let db = db_of [ (r1_wkey, [ [ 1; 2 ] ]); (r2_ykey, [ [ 2; 5 ] ]) ] in
  let cfg =
    Core.Algorithm.Config.make ~rv_period:1 ~view:vd
      ~init_mv:(R.Viewdef.eval db vd) ()
  in
  let wh = Core.Warehouse.create [ (vd, Core.Registry.creator_exn "eca" cfg) ] in
  let reaction = Core.Warehouse.handle_answer wh ~gid:999 (bag [ [ 1; 5 ] ]) in
  Alcotest.(check bool) "no reaction" true
    (reaction = Core.Warehouse.no_reaction);
  (match Core.Warehouse.anomalies wh with
   | [ a ] ->
     Alcotest.(check bool) "anomaly names the gid" true (contains a "Q999")
   | l -> Alcotest.failf "expected one anomaly, got %d" (List.length l));
  Alcotest.(check bool) "the warehouse keeps serving" true
    (Core.Warehouse.quiescent wh)

let generator_int_at_raises () =
  let t = R.Tuple.of_list [ R.Value.Str "oops"; R.Value.Int 3 ] in
  Alcotest.(check bool) "non-integer key cell is an Invalid_argument" true
    (match Workload.Generator.int_at ~rel:"r1" ~col:"W" t 0 with
     | exception Invalid_argument msg -> contains msg "r1" && contains msg "W"
     | _ -> false);
  check_int "integer cell reads through" 3
    (Workload.Generator.int_at ~rel:"r1" ~col:"W" t 1)

(* Seed-pinned golden over the keyed stream: the List.nth → array change
   in the generator must not perturb RNG draw order, and nothing may in
   the future either. *)
let generator_seed_pin () =
  let sp = Workload.Spec.make ~c:6 ~j:2 ~k_updates:10 ~insert_ratio:0.5 ~seed:3 () in
  let updates =
    Workload.Generator.keyed_updates sp ~db:(Workload.Generator.keyed_db sp)
  in
  let rendered = String.concat "; " (List.map R.Update.to_string updates) in
  Alcotest.(check string) "keyed stream at seed 3 is pinned"
    "insert(r1, [6,0]); delete(r2, [1,5]); delete(r2, [1,0]); delete(r1, \
     [6,0]); insert(r2, [2,6]); insert(r1, [7,0]); insert(r2, [2,7]); \
     delete(r2, [2,4]); insert(r2, [2,8]); insert(r1, [8,1])"
    rendered

let selfmaint_column_lookups () =
  let a = R.Selfmaint.analyze (R.Viewdef.simple (Workload.Scenarios.selfmaintainable_view ())) in
  List.iter
    (fun aux ->
      (* every maintained auxiliary projection is total over its base *)
      ignore (R.Selfmaint.aux_project aux (R.Tuple.ints [ 1; 2; 3 ])))
    (R.Selfmaint.maintained a)

let selfmaint_lookup_prop =
  QCheck.Test.make ~name:"selfmaint analysis never breaches column bounds"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let { Workload.Scenarios.db = _; view; updates = _ } =
        Workload.Scenarios.selfmaintainable (spec ~seed ())
      in
      match R.Selfmaint.analyze (R.Viewdef.simple view) with
      | exception Invalid_argument _ -> false
      | _ -> true)

let suite =
  [
    Alcotest.test_case "Evolve: add/drop roundtrip" `Quick schema_roundtrip;
    Alcotest.test_case "Evolve: RESTRICT rules" `Quick restrict_rules;
    Alcotest.test_case "Evolve: backfill and key re-validation" `Quick
      db_backfill_and_key_validation;
    Alcotest.test_case "parser: ALTER TABLE forms" `Quick parse_alter;
    Alcotest.test_case "parser: ALTER TABLE errors" `Quick parse_alter_errors;
    Alcotest.test_case "clean DDL run matches the evolved oracle" `Quick
      clean_run_matches_oracle;
    Alcotest.test_case "40-seed clean sweep: surviving rung" `Slow
      surviving_rung_sweep;
    Alcotest.test_case "40-seed reliable chaos sweep: surviving rung" `Slow
      reliable_chaos_sweep;
    Alcotest.test_case "raw chaos breaks the DDL protocol (witness)" `Slow
      raw_chaos_breaks_somewhere;
    Alcotest.test_case "no-DDL run is byte-identical" `Quick
      no_ddl_run_is_byte_identical;
    Alcotest.test_case "windowed view: hand-checked age-out" `Quick hand_window;
    Alcotest.test_case "windowed view matches windowed recompute" `Quick
      windowed_matches_oracle;
    Alcotest.test_case "window compensation prunes and answers locally" `Quick
      window_pruning_fires;
    Alcotest.test_case "windowed age-out is deterministic at any PAR" `Quick
      windowed_deterministic_at_any_par;
    Alcotest.test_case "window validation" `Quick window_validation;
    Alcotest.test_case "catalog-registered windows" `Quick windowed_catalog_run;
    Alcotest.test_case "unknown answer is an anomaly, not a crash" `Quick
      unknown_answer_is_an_anomaly;
    Alcotest.test_case "generator int_at names relation and column" `Quick
      generator_int_at_raises;
    Alcotest.test_case "generator RNG order is seed-pinned" `Quick
      generator_seed_pin;
    Alcotest.test_case "selfmaint auxiliary projections are total" `Quick
      selfmaint_column_lookups;
    QCheck_alcotest.to_alcotest selfmaint_lookup_prop;
  ]
