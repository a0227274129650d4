(* The benchmark's own tests: the install-lag definition on the paper's
   Example 2, the correctness gate, replay fidelity on a tiny instance of
   each workload, and seed discipline. *)

open Vmbench
module R = Relational
module T = Core.Trace

(* Example 2 of the paper: V = π_W (r1 ⋈ r2), r1 = {(1,2)}, r2 = {};
   U1 inserts (2,3) into r2, U2 inserts (4,2) into r1. *)
let r1 = R.Schema.of_names "r1" [ "W"; "X" ]
let r2 = R.Schema.of_names "r2" [ "X"; "Y" ]

let view =
  R.View.natural_join ~name:"v" ~proj:[ R.Attr.qualified "r1" "W" ] [ r1; r2 ]

let db =
  R.Db.apply
    (R.Db.add_relation (R.Db.add_relation R.Db.empty r1) r2)
    (R.Update.insert "r1" (R.Tuple.ints [ 1; 2 ]))

let u1 = R.Update.insert ~seq:1 "r2" (R.Tuple.ints [ 2; 3 ])
let u2 = R.Update.insert ~seq:2 "r1" (R.Tuple.ints [ 4; 2 ])
let bag rows = R.Bag.of_list (List.map R.Tuple.ints rows)
let v1 = bag [ [ 1 ] ]
let v2 = bag [ [ 1 ]; [ 4 ] ]

let note u gid =
  T.Warehouse_note
    { updates = [ u ]; queries = [ (gid, R.Query.empty) ]; installs = [] }

(* ECA under the schedule A W A W S W S W: the first answer arrives
   while the second query is unanswered, so the one install comes last,
   at entry 7. *)
let example2_entries =
  [
    T.Source_update { updates = [ u1 ]; source_views = [ ("v", v1) ] };
    note u1 0;
    T.Source_update { updates = [ u2 ]; source_views = [ ("v", v2) ] };
    note u2 1;
    T.Source_answer { gid = 0; answer = v2; cost = Storage.Cost.zero };
    T.Warehouse_answer { gid = 0; installs = [] };
    T.Source_answer { gid = 1; answer = R.Bag.empty; cost = Storage.Cost.zero };
    T.Warehouse_answer { gid = 1; installs = [ ("v", [ v2 ]) ] };
  ]

let trace_of entries =
  let t = T.create ~initial_views:[ ("v", R.Bag.empty) ] in
  List.iter (T.record t) entries;
  t

let lags entries = List.sort Int.compare (Lag.of_trace (trace_of entries))
let check_lags = Alcotest.(check (list int))
let check_float = Alcotest.(check (float 1e-9))

let lag_example2 () =
  (* U1 (entry 0) and U2 (entry 2) both close at entry 7. *)
  check_lags "lags" [ 5; 7 ] (lags example2_entries);
  check_float "p50" 5.5 (Lag.quantile [ 7; 5 ] 0.5);
  check_float "p99" 7.48 (Lag.quantile [ 7; 5 ] 0.99);
  check_float "p50 of a tie" 3. (Lag.quantile [ 3; 3; 3; 3 ] 0.5)

let lag_censored_and_unchanged () =
  (* Without the answers nothing closes: both lags run to the trace's
     end (4 entries). An update that leaves the view unchanged is not
     counted. *)
  check_lags "censored" [ 2; 4 ]
    (lags (List.filteri (fun i _ -> i < 4) example2_entries));
  let noop = R.Update.insert ~seq:3 "r2" (R.Tuple.ints [ 9; 9 ]) in
  let unchanged =
    T.Source_update { updates = [ noop ]; source_views = [ ("v", v2) ] }
  in
  check_lags "unchanged" [ 5; 7 ] (lags (example2_entries @ [ unchanged ]))

(* The same run through the engine: the hand-built lags are the ones a
   real ECA trace yields. *)
let example2 creator : Workloads.t =
  let open Core.Scheduler in
  {
    Workloads.sites = [ Core.Engine.site ~name:"source" db ];
    views = [ R.Viewdef.simple view ];
    updates = [ u1; u2 ];
    creator = Core.Registry.creator_exn creator;
    schedule =
      Explicit
        [
          Apply_update; Warehouse_receive; Apply_update; Warehouse_receive;
          Source_receive; Warehouse_receive; Source_receive; Warehouse_receive;
        ];
    share_deltas = false;
  }

let lag_engine_example2 () =
  let r = Workloads.run (example2 "eca") in
  check_lags "engine lags" [ 5; 7 ]
    (List.sort Int.compare (Lag.of_trace r.Core.Engine.trace))

let gate () =
  let failed creator =
    let w = example2 creator in
    Measure.failed_views w (Measure.untraced w)
  in
  Alcotest.(check (list string)) "eca passes" [] (failed "eca");
  Alcotest.(check (list string))
    "basic fails (the paper's anomaly)" [ "v" ] (failed "basic")

let replay_reproduces name () =
  let w = Workloads.make ~small:true name 1 in
  let l = Replay.run w (Workloads.run w) in
  let exec =
    List.find
      (fun (x : Replay.layer) -> x.Replay.name = "source_site.execute")
      l.Replay.layers
  in
  Alcotest.(check int)
    "every update executed"
    (List.length w.Workloads.updates)
    exec.Replay.calls;
  (* The fidelity check bites: another seed's recording is not this
     run's. *)
  let other = Workloads.run (Workloads.make ~small:true name 2) in
  match Replay.run w other with
  | _ -> Alcotest.fail "replay accepted another seed's recording"
  | exception Replay.Mismatch _ -> ()

let counts_of name seed =
  let w = Workloads.make ~small:true name seed in
  let r = Measure.untraced w in
  match (r.Measure.result, r.Measure.counts) with
  | Ok res, Some c -> (c, Lag.of_trace res.Core.Engine.trace)
  | _ -> Alcotest.fail "the run failed"

let seed_discipline name () =
  ignore (counts_of name 1);
  let a = counts_of name 1 and b = counts_of name 1 in
  Alcotest.(check bool) "a seed repeats exactly" true (a = b);
  let c = counts_of name 2 in
  Alcotest.(check bool) "another seed changes the counts" true (fst a <> fst c)

let per_workload label test =
  List.map
    (fun name -> Alcotest.test_case (name ^ label) `Quick (test name))
    Workloads.names

let () =
  Alcotest.run "perfbench"
    [
      ( "lag",
        [
          Alcotest.test_case "Example 2 under ECA" `Quick lag_example2;
          Alcotest.test_case "censored and unchanged pairs" `Quick
            lag_censored_and_unchanged;
          Alcotest.test_case "engine trace of Example 2" `Quick
            lag_engine_example2;
        ] );
      ("gate", [ Alcotest.test_case "anomalous views fail" `Quick gate ]);
      ("replay", per_workload " reproduces Engine.run" replay_reproduces);
      ("seed", per_workload " counts repeat per seed" seed_discipline);
    ]
