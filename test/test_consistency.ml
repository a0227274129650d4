(* The Section-3.1 correctness hierarchy, exercised on hand-built state
   sequences where each level's verdict is known. *)

open Helpers
module R = Relational
module C = Core.Consistency

let s n = bag [ [ n ] ]

let check_report name expected ~source ~warehouse =
  Alcotest.check report_testable name expected
    (C.check ~source_states:source ~warehouse_states:warehouse)

let all_good =
  {
    C.convergent = true;
    weakly_consistent = true;
    consistent = true;
    strongly_consistent = true;
    complete = true;
  }

let identical_sequences () =
  check_report "identical sequences are complete" all_good
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 1; s 2 ]

let skipping_states_is_strong_but_incomplete () =
  check_report "warehouse skips a source state"
    { all_good with complete = false }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 2 ]

let wrong_final_state () =
  check_report "diverging final state"
    {
      C.convergent = false;
      weakly_consistent = true;
      consistent = true;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 1 ]

let invalid_intermediate_state () =
  (* ws visits a state the source never had: not even weakly consistent,
     though it converges. *)
  check_report "invalid intermediate state"
    {
      C.convergent = true;
      weakly_consistent = false;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 2 ]
    ~warehouse:[ s 0; s 9; s 2 ]

(* Convergence reads only the final states, and state sequences grow
   with the trace length: a long history must still check in one pass. *)
let long_histories_converge () =
  let n = 100_000 in
  let source = List.init n s in
  let convergent ~source_states ~warehouse_states =
    (C.check ~source_states ~warehouse_states).C.convergent
  in
  check_bool "convergent reads only the final states" true
    (convergent ~source_states:source ~warehouse_states:[ s (n - 1) ]);
  check_bool "wrong tail detected" false
    (convergent ~source_states:source ~warehouse_states:[ s 0 ]);
  check_bool "empty warehouse history never converges" false
    (convergent ~source_states:source ~warehouse_states:[]);
  check_bool "empty source history never converges" false
    (convergent ~source_states:[] ~warehouse_states:[ s 0 ])

let out_of_order_states () =
  (* Every warehouse state is valid but the order is reversed: weakly
     consistent, convergent, yet not consistent. *)
  check_report "out of order"
    {
      C.convergent = true;
      weakly_consistent = true;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0; s 1; s 2 ]
    ~warehouse:[ s 0; s 2; s 1; s 2 ]

let repeated_matches_allowed () =
  (* Consistency allows ss_k <= ss_l: two warehouse states may map to the
     same source state. *)
  check_report "repeats allowed" all_good
    ~source:[ s 0; s 1 ]
    ~warehouse:[ s 0; s 0; s 1 ]

let source_revisits_a_state () =
  (* The source passes through equal states at different times; greedy
     matching must still find an order-preserving assignment. *)
  check_report "revisited state"
    { all_good with complete = false }
    ~source:[ s 0; s 1; s 0; s 2 ]
    ~warehouse:[ s 0; s 0; s 2 ]

let empty_warehouse_history () =
  check_report "no warehouse states at all"
    {
      C.convergent = false;
      weakly_consistent = true;
      consistent = true;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ s 0 ] ~warehouse:[]

let labels () =
  Alcotest.(check string) "complete" "complete" (C.strongest_label all_good);
  Alcotest.(check string)
    "strong" "strongly consistent"
    (C.strongest_label { all_good with complete = false });
  Alcotest.(check string)
    "inconsistent" "inconsistent"
    (C.strongest_label
       {
         C.convergent = false;
         weakly_consistent = false;
         consistent = false;
         strongly_consistent = false;
         complete = false;
       })

(* Reference implementation of the consistency check: exhaustive dynamic
   programming over all order-preserving assignments. The production
   checker uses greedy earliest-match; this property justifies it. *)
let reference_consistent ~source_states ~warehouse_states =
  let src = Array.of_list source_states in
  let wh = Array.of_list warehouse_states in
  let n = Array.length src and m = Array.length wh in
  (* reachable.(j) = set of source indices the first j warehouse states can
     map to for their last match *)
  let rec go j candidates =
    if j >= m then true
    else begin
      let next =
        List.concat_map
          (fun from ->
            List.filter
              (fun i -> R.Bag.equal src.(i) wh.(j))
              (List.init (n - from) (fun d -> from + d)))
          candidates
        |> List.sort_uniq Int.compare
      in
      next <> [] && go (j + 1) next
    end
  in
  m = 0 || go 0 [ 0 ]

(* The quadratic predicates [C.check] decided before states were
   classified by fingerprint, kept as its reference. *)
module Quadratic = struct
  let rec last = function
    | [] -> None
    | [ x ] -> Some x
    | _ :: rest -> last rest

  let convergent ~source_states ~warehouse_states =
    match last source_states, last warehouse_states with
    | Some s, Some w -> R.Bag.equal s w
    | _ -> false

  let weakly_consistent ~source_states ~warehouse_states =
    List.for_all
      (fun w -> List.exists (fun s -> R.Bag.equal s w) source_states)
      warehouse_states

  let consistent ~source_states ~warehouse_states =
    let src = Array.of_list source_states in
    let n = Array.length src in
    let rec go from = function
      | [] -> true
      | w :: rest ->
        let rec find j =
          if j >= n then None
          else if R.Bag.equal src.(j) w then Some j
          else find (j + 1)
        in
        (match find from with
         | None -> false
         | Some j -> go j rest)
    in
    go 0 warehouse_states

  let covers_all_source_states ~source_states ~warehouse_states =
    List.for_all
      (fun s -> List.exists (fun w -> R.Bag.equal w s) warehouse_states)
      source_states

  let check ~source_states ~warehouse_states =
    let convergent = convergent ~source_states ~warehouse_states in
    let weakly_consistent = weakly_consistent ~source_states ~warehouse_states in
    let consistent = consistent ~source_states ~warehouse_states in
    let strongly_consistent = consistent && convergent in
    let complete =
      strongly_consistent
      && covers_all_source_states ~source_states ~warehouse_states
    in
    { C.convergent; weakly_consistent; consistent; strongly_consistent; complete }
end

(* Ids name states, id 4 the empty bag: a repeated id reuses one bag
   object, so the physical-equality path runs, unless its flag asks for a
   freshly built equal copy. Either sequence may be empty. *)
let checker_prop =
  let state i = if i = 4 then bag [] else s i in
  let pool = Array.init 5 state in
  let states = List.map (fun (i, fresh) -> if fresh then state i else pool.(i)) in
  let ids = QCheck.Gen.(list_size (int_bound 6) (pair (int_bound 4) bool)) in
  let print ids =
    String.concat ","
      (List.map (fun (i, fresh) -> string_of_int i ^ if fresh then "'" else "") ids)
  in
  QCheck.Test.make
    ~name:"greedy consistency = exhaustive reference, report = quadratic"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "src=%s wh=%s" (print a) (print b))
       (QCheck.Gen.pair ids ids))
    (fun (src_ids, wh_ids) ->
      let source_states = states src_ids and warehouse_states = states wh_ids in
      let report = C.check ~source_states ~warehouse_states in
      report = Quadratic.check ~source_states ~warehouse_states
      && report.C.consistent
         = reference_consistent ~source_states ~warehouse_states)

(* Two [Int] tuples with equal [Tuple.hash] ({!Helpers.colliding_pair}):
   their singleton bags share a fingerprint but are different states. *)
let fingerprint_collision () =
  let i, j = colliding_pair () in
  let a = s i and b = s j in
  check_int "equal fingerprints" (R.Bag.fingerprint a) (R.Bag.fingerprint b);
  check_bool "yet different bags" false (R.Bag.equal a b);
  check_report "a colliding state is no source state"
    {
      C.convergent = false;
      weakly_consistent = false;
      consistent = false;
      strongly_consistent = false;
      complete = false;
    }
    ~source:[ a ] ~warehouse:[ b ];
  check_report "colliding source states stay apart"
    { all_good with complete = false }
    ~source:[ a; b ] ~warehouse:[ b ];
  check_bool "a shared bucket compares as a multiset" true
    (R.Bag.equal (bag [ [ i ]; [ j ] ]) (bag [ [ j ]; [ i ] ]))

let fingerprint_follows_contents () =
  let rows = [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 2 ]; [ 5; 6 ] ] in
  let fp = R.Bag.fingerprint in
  check_int "insertion order" (fp (bag rows)) (fp (bag (List.rev rows)));
  let extra = R.Tuple.ints [ 7; 8 ] in
  check_int "add then remove"
    (fp (bag rows))
    (fp (R.Bag.remove ~count:3 extra (R.Bag.add ~count:3 extra (bag rows))));
  check_int "empty" 0 (fp R.Bag.empty);
  check_bool "a count changes it" true
    (fp (bag rows) <> fp (bag (List.tl rows)));
  check_bool "and breaks equality" false (R.Bag.equal (bag rows) (bag (List.tl rows)));
  check_bool "of singleton buckets too" false
    (R.Bag.equal (s 1) (R.Bag.singleton ~count:2 (R.Tuple.ints [ 1 ])))

(* [Trace.source_states]/[warehouse_states] as full scans of the trace,
   kept as the reference for the per-view index. *)
let scan_source_states t name =
  let initial =
    match List.assoc_opt name (Core.Trace.initial_views t) with
    | Some v -> [ v ]
    | None -> []
  in
  initial
  @ List.filter_map
      (function
        | Core.Trace.Source_update { source_views; _ }
        | Core.Trace.Source_ddl { source_views; _ } ->
          List.assoc_opt name source_views
        | _ -> None)
      (Core.Trace.entries t)

let scan_warehouse_states t name =
  let initial =
    match List.assoc_opt name (Core.Trace.initial_views t) with
    | Some v -> [ v ]
    | None -> []
  in
  let installs_of = function
    | Core.Trace.Warehouse_note { installs; _ }
    | Core.Trace.Warehouse_answer { installs; _ }
    | Core.Trace.Quiesce_probe { installs; _ }
    | Core.Trace.Warehouse_ddl { installs; _ } ->
      installs
    | Core.Trace.Source_update _ | Core.Trace.Source_answer _
    | Core.Trace.Source_ddl _ ->
      []
  in
  initial
  @ List.concat_map
      (fun e ->
        match List.assoc_opt name (installs_of e) with
        | Some states -> states
        | None -> [])
      (Core.Trace.entries t)

let trace_index_prop =
  QCheck.Test.make ~name:"trace index = full-scan reference" ~count:1000
    arb_trace (fun t ->
      List.for_all
        (fun name ->
          List.equal ( == )
            (Core.Trace.source_states t name)
            (scan_source_states t name)
          && List.equal ( == )
               (Core.Trace.warehouse_states t name)
               (scan_warehouse_states t name))
        [ "a"; "b"; "c"; "d"; "never" ])

let suite =
  [
    Alcotest.test_case "identical sequences" `Quick identical_sequences;
    Alcotest.test_case "skipped states: strong, not complete" `Quick
      skipping_states_is_strong_but_incomplete;
    Alcotest.test_case "wrong final state" `Quick wrong_final_state;
    Alcotest.test_case "invalid intermediate state" `Quick
      invalid_intermediate_state;
    Alcotest.test_case "long histories converge" `Quick
      long_histories_converge;
    Alcotest.test_case "out-of-order states" `Quick out_of_order_states;
    Alcotest.test_case "repeated matches allowed" `Quick
      repeated_matches_allowed;
    Alcotest.test_case "source revisits a state" `Quick
      source_revisits_a_state;
    Alcotest.test_case "empty warehouse history" `Quick
      empty_warehouse_history;
    Alcotest.test_case "strongest labels" `Quick labels;
    Alcotest.test_case "fingerprint collision" `Quick fingerprint_collision;
    Alcotest.test_case "fingerprint follows contents" `Quick
      fingerprint_follows_contents;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ checker_prop; trace_index_prop ]
