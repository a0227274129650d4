(* Golden-trace equivalence: the exact JSON serialization of a set of
   representative runs, pinned as committed files under test/golden/.

   These files were generated by the two event loops that predate the
   site-graph engine — one single-source, one multi-source — and pin
   their observable behavior byte-for-byte: trace event order, installed
   states, metric counters, consistency verdicts. [Core.Engine.run] must
   reproduce them exactly, over one site ("runner_" cases) and over
   several ("fed_" cases) — a failing diff here means a change altered
   simulation semantics, not just code structure.

   Regenerate (only when an intentional semantic change is made) with:

     GOLDEN_REGEN=$PWD/test/golden dune exec test/main.exe -- test golden

   and review the diff like any other behavioral change. *)

open Helpers
module R = Relational
module S = Core.Scheduler

(* ------------------------------------------------------------------ *)
(* Single-source configs (full Json_export.result)                     *)
(* ------------------------------------------------------------------ *)

let small_db () = db_of [ (r1, [ [ 1; 2 ]; [ 4; 5 ] ]); (r2, [ [ 2; 3 ] ]) ]

let chain_db () =
  db_of
    [
      (r1, [ [ 1; 2 ]; [ 7; 8 ] ]);
      (r2, [ [ 2; 3 ]; [ 8; 9 ] ]);
      (r3, [ [ 3; 4 ] ]);
    ]

let small_updates =
  [ ins "r2" [ 5; 6 ]; ins "r1" [ 9; 5 ]; del "r1" [ 1; 2 ]; ins "r2" [ 5; 7 ] ]

let runner_json ?schedule ?rv_period ?batch_size ?fault ?fault_seed ?reliable
    ~algorithm ~views ~db ~updates () =
  Core.Json_export.result
    (Core.Engine.run ?schedule ?rv_period ?batch_size
       ~creator:(Core.Registry.creator_exn algorithm)
       ~sites:
         [ Core.Engine.site ?fault ?fault_seed ?reliable ~name:"source" db ]
       ~views:(defs views) ~updates ())

let runner_eca_worst () =
  runner_json ~schedule:Core.Scheduler.Worst_case ~algorithm:"eca"
    ~views:[ view_w () ] ~db:(small_db ()) ~updates:small_updates ()

let runner_rv_round_robin () =
  runner_json ~schedule:Core.Scheduler.Round_robin ~rv_period:2 ~algorithm:"rv"
    ~views:[ view_w3 () ]
    ~db:(chain_db ())
    ~updates:[ ins "r3" [ 9; 1 ]; ins "r1" [ 5; 2 ]; del "r2" [ 2; 3 ] ]
    ()

let runner_eca_batched () =
  runner_json ~schedule:Core.Scheduler.Best_case ~batch_size:2 ~algorithm:"eca"
    ~views:[ view_w () ] ~db:(small_db ()) ~updates:small_updates ()

let runner_lca_random () =
  runner_json
    ~schedule:(Core.Scheduler.Random 9)
    ~algorithm:"lca" ~views:[ view_wy () ] ~db:(small_db ())
    ~updates:small_updates ()

let runner_reliable_chaos () =
  let { Workload.Scenarios.db; view; updates } =
    Workload.Scenarios.example6
      (Workload.Spec.make ~c:12 ~j:3 ~k_updates:8 ~insert_ratio:0.6 ~seed:3 ())
  in
  runner_json
    ~schedule:(Core.Scheduler.Random 3)
    ~fault:Workload.Scenarios.chaos_profile ~fault_seed:21 ~reliable:true
    ~algorithm:"eca" ~views:[ view ] ~db ~updates ()

(* ------------------------------------------------------------------ *)
(* Multi-source configs (Json_export.federation_summary)               *)
(* ------------------------------------------------------------------ *)

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

let fed_sources () = [ ("hr", None, hr_db ()); ("sales", None, sales_db ()) ]

let fed_updates =
  [
    ins "emp" [ 3; 20 ];
    ins "ord" [ 101; 8 ];
    del "emp" [ 1; 10 ];
    ins "cust" [ 9; 3 ];
    del "ord" [ 100; 7 ];
    ins "dept" [ 30; 100 ];
  ]

let fed_json ~schedule ?allow_cross_source ~algorithm ~sources ~views ~updates
    () =
  Core.Json_export.federation_summary
    (Core.Engine.run ~schedule ?allow_cross_source
       ~creator:(Core.Registry.creator_exn algorithm)
       ~sites:(fed_sites sources) ~views:(defs views) ~updates ())

let fed_eca_drain () =
  fed_json ~schedule:S.Best_case ~algorithm:"eca" ~sources:(fed_sources ())
    ~views:[ v_hr; v_sales ] ~updates:fed_updates ()

let fed_eca_updates_first () =
  fed_json ~schedule:S.Worst_case ~algorithm:"eca" ~sources:(fed_sources ())
    ~views:[ v_hr; v_sales ] ~updates:fed_updates ()

let v_cross =
  R.View.make ~name:"cross"
    ~proj:[ R.Attr.qualified "emp" "EID"; R.Attr.qualified "cust" "SEGMENT" ]
    ~cond:(R.Predicate.eq_attrs "emp.EID" "cust.CID")
    [ emp; cust ]

let fed_cross_race () =
  fed_json ~schedule:S.Worst_case ~allow_cross_source:true
    ~algorithm:"fetch-join" ~sources:(fed_sources ()) ~views:[ v_cross ]
    ~updates:[ ins "emp" [ 8; 10 ]; ins "cust" [ 8; 1 ] ]
    ()

let fed_single_source_rv () =
  fed_json ~schedule:S.Worst_case ~algorithm:"rv"
    ~sources:[ ("hr", None, hr_db ()) ]
    ~views:[ v_hr ]
    ~updates:[ ins "emp" [ 3; 10 ]; del "emp" [ 2; 20 ] ]
    ()

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let cases =
  [
    ("runner_eca_worst", runner_eca_worst);
    ("runner_rv_round_robin", runner_rv_round_robin);
    ("runner_eca_batched", runner_eca_batched);
    ("runner_lca_random", runner_lca_random);
    ("runner_reliable_chaos", runner_reliable_chaos);
    ("fed_eca_drain", fed_eca_drain);
    ("fed_eca_updates_first", fed_eca_updates_first);
    ("fed_cross_race", fed_cross_race);
    ("fed_single_source_rv", fed_single_source_rv);
  ]

(* dune runtest sandboxes the suite next to the golden directory;
   `dune exec test/main.exe` runs from the project root. *)
let golden_path name =
  let candidates = [ Filename.concat "golden" name; "test/golden/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let check_case (name, compute) () =
  let file = name ^ ".json" in
  let json = compute () ^ "\n" in
  match Sys.getenv_opt "GOLDEN_REGEN" with
  | Some dir ->
    write_file (Filename.concat dir file) json;
    Printf.printf "regenerated %s\n" file
  | None ->
    let path = golden_path file in
    if not (Sys.file_exists path) then
      Alcotest.failf
        "golden file %s missing — regenerate with GOLDEN_REGEN=$PWD/test/golden \
         dune exec test/main.exe -- test golden"
        file;
    Alcotest.(check string) (name ^ " matches its golden trace") (read_file path)
      json

let suite =
  List.map
    (fun ((name, _) as case) ->
      Alcotest.test_case name `Quick (check_case case))
    cases
