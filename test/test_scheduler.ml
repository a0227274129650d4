(* Scheduler policies in isolation: the priority orders that realize the
   paper's best and worst cases, rotation, determinism of seeded
   randomness, and the explicit-script discipline. *)

open Helpers
module S = Core.Scheduler

let all_enabled = { S.can_update = true; can_source = true; can_warehouse = true }

let none_enabled =
  { S.can_update = false; can_source = false; can_warehouse = false }

let best_case_priorities () =
  let t = S.create S.Best_case in
  Alcotest.(check (option string))
    "source first" (Some "source-receive")
    (Option.map S.action_name (S.pick t all_enabled));
  Alcotest.(check (option string))
    "then warehouse" (Some "warehouse-receive")
    (Option.map S.action_name
       (S.pick t { all_enabled with S.can_source = false }));
  Alcotest.(check (option string))
    "updates last" (Some "apply-update")
    (Option.map S.action_name
       (S.pick t
          { S.can_update = true; can_source = false; can_warehouse = false }))

let worst_case_priorities () =
  let t = S.create S.Worst_case in
  Alcotest.(check (option string))
    "updates first" (Some "apply-update")
    (Option.map S.action_name (S.pick t all_enabled));
  Alcotest.(check (option string))
    "then warehouse deliveries" (Some "warehouse-receive")
    (Option.map S.action_name
       (S.pick t { all_enabled with S.can_update = false }))

let nothing_enabled () =
  let t = S.create S.Best_case in
  check_bool "no action" true (Option.is_none (S.pick t none_enabled))

let round_robin_rotates () =
  let t = S.create S.Round_robin in
  let names =
    List.init 6 (fun _ ->
        S.action_name (Option.get (S.pick t all_enabled)))
  in
  (* with all three enabled, rotation must cycle with period 3 *)
  Alcotest.(check (list string))
    "cycle"
    [ List.nth names 0; List.nth names 1; List.nth names 2 ]
    [ List.nth names 3; List.nth names 4; List.nth names 5 ];
  check_int "three distinct actions in a cycle" 3
    (List.length (List.sort_uniq String.compare names))

let round_robin_skips_disabled () =
  (* Regression: the cursor must rotate over the FIXED action order,
     skipping disabled actions — not index into the filtered enabled
     list (which silently restarted the rotation whenever the enabled
     set changed, starving warehouse-receive under some workloads). *)
  let t = S.create S.Round_robin in
  let pick e = Option.map S.action_name (S.pick t e) in
  let check msg want got = Alcotest.(check (option string)) msg (Some want) got in
  check "starts at apply-update" "apply-update" (pick all_enabled);
  check "then source-receive" "source-receive" (pick all_enabled);
  check "disabled warehouse is skipped, wraps around" "apply-update"
    (pick { all_enabled with S.can_warehouse = false });
  check "rotation resumes after the skip" "source-receive" (pick all_enabled);
  check "warehouse gets its turn" "warehouse-receive" (pick all_enabled);
  check "full cycle" "apply-update" (pick all_enabled);
  check "sole enabled action wins regardless of cursor" "source-receive"
    (pick { S.can_update = false; can_source = true; can_warehouse = false });
  check "cursor moved past the forced pick" "warehouse-receive"
    (pick all_enabled);
  check "and wraps again" "apply-update" (pick all_enabled)

let random_is_deterministic_per_seed () =
  let sequence seed =
    let t = S.create (S.Random seed) in
    List.init 20 (fun _ -> S.action_name (Option.get (S.pick t all_enabled)))
  in
  Alcotest.(check (list string)) "same seed, same picks" (sequence 42) (sequence 42);
  check_bool "different seeds diverge somewhere" true
    (sequence 1 <> sequence 2)

let explicit_consumes_script () =
  let t = S.create (S.Explicit [ S.Apply_update; S.Source_receive ]) in
  Alcotest.(check (option string))
    "first scripted" (Some "apply-update")
    (Option.map S.action_name (S.pick t all_enabled));
  Alcotest.(check (option string))
    "second scripted" (Some "source-receive")
    (Option.map S.action_name (S.pick t all_enabled));
  (* exhausted: falls back to best-case priorities *)
  Alcotest.(check (option string))
    "fallback after exhaustion" (Some "source-receive")
    (Option.map S.action_name (S.pick t all_enabled))

let explicit_rejects_disabled () =
  let t = S.create (S.Explicit [ S.Source_receive ]) in
  match S.pick t { all_enabled with S.can_source = false } with
  | exception S.Schedule_error _ -> ()
  | _ -> Alcotest.fail "expected Schedule_error"

(* --- the ready-set path ------------------------------------------------ *)

(* pick_ready over incrementally maintained state must agree with
   pick_ready over a fresh state built from the same readiness arrays —
   including the stateful policies' cursors and RNG draws — under
   arbitrary readiness churn. *)
let fresh_equals_maintained () =
  let n = 5 in
  let st = Random.State.make [| 2024 |] in
  List.iter
    (fun policy ->
      let a = S.create policy and b = S.create policy in
      let ready = S.Ready.create n in
      for step = 1 to 300 do
        let update = Random.State.bool st in
        let sources = Array.init n (fun _ -> Random.State.bool st) in
        let warehouses = Array.init n (fun _ -> Random.State.bool st) in
        (* maintain the persistent state edge by edge, as the engine does *)
        S.Ready.set_update ready update;
        Array.iteri (S.Ready.set_source ready) sources;
        Array.iteri (S.Ready.set_warehouse ready) warehouses;
        let ea = S.pick_ready a (ready_of ~update sources warehouses)
        and eb = S.pick_ready b ready in
        if ea <> eb then
          Alcotest.failf "step %d: fresh and maintained state diverge" step
      done)
    [
      S.Best_case; S.Worst_case; S.Round_robin; S.Random 7; S.Random 99;
      S.Bounded_inflight 2; S.Weighted_fair 2;
    ]

let bounded_inflight_gates_on_load () =
  let t = S.create (S.Bounded_inflight 2) in
  let r = S.Ready.create 3 in
  S.Ready.set_update r true;
  S.Ready.set_update_site r 1;
  (* under the bound: the update flows *)
  S.Ready.set_load r 1 1;
  Alcotest.(check bool) "under the bound" true (S.pick_ready t r = Some S.Apply);
  (* at the bound: drain instead — heaviest ready warehouse end first *)
  S.Ready.set_load r 1 2;
  S.Ready.set_warehouse r 0 true;
  S.Ready.set_warehouse r 2 true;
  S.Ready.set_load r 0 1;
  S.Ready.set_load r 2 5;
  Alcotest.(check bool) "drains the heaviest warehouse end" true
    (S.pick_ready t r = Some (S.Site_warehouse 2));
  S.Ready.set_warehouse r 0 false;
  S.Ready.set_warehouse r 2 false;
  S.Ready.set_source r 0 true;
  Alcotest.(check bool) "then source ends" true
    (S.pick_ready t r = Some (S.Site_source 0));
  S.Ready.set_source r 0 false;
  (* blocked with nothing deliverable: the engine must tick the clock *)
  Alcotest.(check bool) "blocked and empty = None" true
    (S.pick_ready t r = None);
  (* an unknown update site never blocks *)
  S.Ready.set_update_site r (-1);
  Alcotest.(check bool) "unknown site flows" true
    (S.pick_ready t r = Some S.Apply)

let weighted_fair_serves_cold_edges () =
  let t = S.create (S.Weighted_fair 2) in
  let r = S.Ready.create 2 in
  (* site 0 is a hot edge with a standing backlog; site 1 has one lonely
     query to answer. The rotation must reach it within the quantum. *)
  S.Ready.set_warehouse r 0 true;
  S.Ready.set_load r 0 10;
  S.Ready.set_source r 1 true;
  let picks = List.init 6 (fun _ -> Option.get (S.pick_ready t r)) in
  Alcotest.(check bool) "hot, hot, cold rotation" true
    (picks
    = [
        S.Site_warehouse 0; S.Site_warehouse 0; S.Site_source 1;
        S.Site_warehouse 0; S.Site_warehouse 0; S.Site_source 1;
      ])

let suite =
  [
    Alcotest.test_case "best-case priorities" `Quick best_case_priorities;
    Alcotest.test_case "pick_ready: fresh = maintained state under churn"
      `Quick fresh_equals_maintained;
    Alcotest.test_case "bounded-inflight gates on edge load" `Quick
      bounded_inflight_gates_on_load;
    Alcotest.test_case "weighted-fair serves cold edges" `Quick
      weighted_fair_serves_cold_edges;
    Alcotest.test_case "worst-case priorities" `Quick worst_case_priorities;
    Alcotest.test_case "nothing enabled" `Quick nothing_enabled;
    Alcotest.test_case "round robin rotates" `Quick round_robin_rotates;
    Alcotest.test_case "round robin skips disabled actions" `Quick
      round_robin_skips_disabled;
    Alcotest.test_case "random determinism" `Quick
      random_is_deterministic_per_seed;
    Alcotest.test_case "explicit script consumption" `Quick
      explicit_consumes_script;
    Alcotest.test_case "explicit rejects disabled actions" `Quick
      explicit_rejects_disabled;
  ]
