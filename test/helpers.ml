(* Shared builders for the test suites: the paper's running schemas and
   views, Alcotest testables, and simulation shorthands. *)

module R = Relational

let bag_testable = Alcotest.testable R.Bag.pp R.Bag.equal

let tuple_testable = Alcotest.testable R.Tuple.pp R.Tuple.equal

let value_testable = Alcotest.testable R.Value.pp R.Value.equal

let query_testable = Alcotest.testable R.Query.pp R.Query.equal

let report_testable =
  Alcotest.testable Core.Consistency.pp (fun (a : Core.Consistency.report) b ->
      a = b)

let plan_testable =
  Alcotest.testable Storage.Plan.pp (fun (a : Storage.Plan.t) b ->
      a.Storage.Plan.io = b.Storage.Plan.io)

(* The paper's schemas, keyless by default — join attributes repeat, so
   declaring keys here would be a lie (and Db enforces declared keys). *)
let r1 = R.Schema.of_names "r1" [ "W"; "X" ]
let r2 = R.Schema.of_names "r2" [ "X"; "Y" ]
let r3 = R.Schema.of_names "r3" [ "Y"; "Z" ]

(* Keyed variants for the ECAK/ECAL tests (Example 5 declares W and Y as
   keys); test data must honour them. *)
let r1_wkey = R.Schema.of_names ~key:[ "W" ] "r1" [ "W"; "X" ]
let r2_ykey = R.Schema.of_names ~key:[ "Y" ] "r2" [ "X"; "Y" ]

let bag rows = R.Bag.of_list (List.map R.Tuple.ints rows)

let db_of assoc =
  List.fold_left
    (fun db (schema, rows) -> R.Db.add_relation ~contents:(bag rows) db schema)
    R.Db.empty assoc

let ins rel row = R.Update.insert rel (R.Tuple.ints row)
let del rel row = R.Update.delete rel (R.Tuple.ints row)

(* V = π_W (r1 ⋈ r2) over r1(W,X), r2(X,Y). *)
let view_w ?(name = "V") () =
  R.View.natural_join ~name ~proj:[ R.Attr.unqualified "W" ] [ r1; r2 ]

(* V = π_{W,Y} (r1 ⋈ r2); pass the keyed schemas for ECAK scenarios. *)
let view_wy ?(name = "V") ?(r1 = r1) ?(r2 = r2) () =
  R.View.natural_join ~name
    ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
    [ r1; r2 ]

(* V = π_W (r1 ⋈ r2 ⋈ r3). *)
let view_w3 ?(name = "V") () =
  R.View.natural_join ~name ~proj:[ R.Attr.unqualified "W" ] [ r1; r2; r3 ]

(* The one-source site graph of the paper's single-source setting. *)
let source_site ?catalog db = Core.Engine.site ?catalog ~name:"source" db

let defs views = List.map R.Viewdef.simple views

(* One site per [(name, catalog, db)] source. Edge [i] seeds its fault
   RNG from [fault_seed + 2i] (a channel pair takes two seeds), so the
   edges fail independently. *)
let fed_sites ?fault ?(fault_seed = 0) ?reliable sources =
  List.mapi
    (fun i (name, catalog, db) ->
      Core.Engine.site ?catalog ?fault ~fault_seed:(fault_seed + (2 * i))
        ?reliable ~name db)
    sources

let run ?catalog ?(schedule = Core.Scheduler.Best_case) ?rv_period ~algorithm
    ~views ~db ~updates () =
  Core.Engine.run ~schedule ?rv_period
    ~creator:(Core.Registry.creator_exn algorithm)
    ~sites:[ source_site ?catalog db ]
    ~views:(defs views) ~updates ()

let final_mv (result : Core.Engine.result) name =
  List.assoc name result.Core.Engine.final_mvs

let report (result : Core.Engine.result) name =
  List.assoc name result.Core.Engine.reports

(* Shorthand for explicit schedules: "AWAWSWSW" = the letter sequence of
   Apply_update / Warehouse_receive / Source_receive actions. *)
let explicit letters =
  Core.Scheduler.Explicit
    (List.map
       (function
         | 'A' -> Core.Scheduler.Apply_update
         | 'S' -> Core.Scheduler.Source_receive
         | 'W' -> Core.Scheduler.Warehouse_receive
         | c -> Alcotest.failf "bad schedule letter %c" c)
       (List.init (String.length letters) (String.get letters)))

(* A fresh scheduler ready state over [Array.length sources] sites: the
   update stream plus each site's source and warehouse ends, loads 0. *)
let ready_of ~update sources warehouses =
  let r = Core.Scheduler.Ready.create (Array.length sources) in
  Core.Scheduler.Ready.set_update r update;
  Array.iteri (Core.Scheduler.Ready.set_source r) sources;
  Array.iteri (Core.Scheduler.Ready.set_warehouse r) warehouses;
  r

let check_bag = Alcotest.check bag_testable
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Deterministic RNG for property generators that need raw randomness. *)
let rng seed = Random.State.make [| seed |]

(* Shared domain pool for the seed-sweep suites (the 40-seed chaos
   matrices in test_faults/test_reliable). Sized by PAR (PAR=1 = the
   sequential path, no domains spawned); created on first use so suites
   that never sweep pay nothing. [par_map] preserves input order and
   re-raises the first exception. The mapped function must return data
   and never call Alcotest: [Alcotest.check] and [Alcotest.fail] write to
   a formatter shared by every domain, so run the checks on the returned
   list, in the calling domain. *)
let pool = lazy (Parallel.Pool.create ())

let par_map f xs = Parallel.Pool.map_list (Lazy.force pool) f xs
