(* The domain pool (Parallel.Pool) and the domain-safety of the shared
   compiled-plan cache: Pool.map must behave exactly like a sequential
   Array.map (order, values, exception choice) at any worker count, and
   N domains concurrently compiling overlapping view skeletons must all
   agree with the naive reference evaluator while the per-domain cache
   statistics aggregate without tearing. *)

open Helpers
module R = Relational
module P = Parallel.Pool

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let map_matches_sequential () =
  List.iter
    (fun workers ->
      P.with_pool ~workers (fun pool ->
          List.iter
            (fun n ->
              let input = Array.init n (fun i -> i) in
              let f i = (i * 7919) lxor (i lsl 3) in
              Alcotest.(check (array int))
                (Printf.sprintf "workers=%d n=%d" workers n)
                (Array.map f input) (P.map pool f input))
            [ 0; 1; 2; 3; 17; 100; 1000 ]))
    [ 1; 2; 4; 8 ]

let map_list_preserves_order () =
  P.with_pool ~workers:4 (fun pool ->
      Alcotest.(check (list string))
        "order kept"
        [ "0!"; "1!"; "2!"; "3!"; "4!" ]
        (P.map_list pool
           (fun i -> string_of_int i ^ "!")
           [ 0; 1; 2; 3; 4 ]))

let pool_is_reusable () =
  P.with_pool ~workers:3 (fun pool ->
      for round = 1 to 5 do
        let out = P.map pool (fun i -> i + round) (Array.init 64 Fun.id) in
        check_int
          (Printf.sprintf "round %d" round)
          (63 + round)
          out.(63)
      done)

let exceptions_propagate_lowest_index () =
  List.iter
    (fun workers ->
      P.with_pool ~workers (fun pool ->
          match
            P.map pool
              (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
              (Array.init 40 Fun.id)
          with
          | _ -> Alcotest.fail "expected Boom"
          | exception Boom i ->
            (* sequential semantics: the first failing element wins *)
            check_int (Printf.sprintf "workers=%d" workers) 2 i))
    [ 1; 4 ]

let par_knob_parsing () =
  Alcotest.(check (option int)) "plain" (Some 4) (P.parse_workers "4");
  Alcotest.(check (option int)) "trimmed" (Some 12) (P.parse_workers " 12 ");
  Alcotest.(check (option int)) "zero" None (P.parse_workers "0");
  Alcotest.(check (option int)) "negative" None (P.parse_workers "-3");
  Alcotest.(check (option int)) "garbage" None (P.parse_workers "many");
  Alcotest.(check (option int)) "empty" None (P.parse_workers "");
  check_bool "default is at least 1" true (P.default_workers () >= 1)

(* ------------------------------------------------------------------ *)
(* Plan-cache stress: concurrent compilation across domains            *)
(* ------------------------------------------------------------------ *)

(* A family of overlapping skeletons: every task evaluates one of these
   views (plus its negation-as-difference) over its own database, so
   several domains keep compiling and hitting the same skeletons. *)
let stress_views =
  [
    view_w ();
    view_wy ();
    view_w3 ();
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "r1.W > 2")
      ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Y" ]
      [ r1; r2 ];
    R.View.natural_join ~name:"V"
      ~extra_cond:(R.Parser.parse_predicate "r2.Y != 1")
      ~proj:[ R.Attr.unqualified "W" ]
      [ r1; r2; r3 ];
  ]

let stress_db seed =
  let st = rng seed in
  let rows n = List.init n (fun _ -> [ Random.State.int st 5; Random.State.int st 5 ]) in
  db_of [ (r1, rows 6); (r2, rows 6); (r3, rows 6) ]

let stress_task i =
  let view = List.nth stress_views (i mod List.length stress_views) in
  let db = stress_db i in
  let q = R.Query.of_view view in
  let ok =
    R.Bag.equal (R.Eval.query db q) (R.Eval.naive_query db q)
    && R.Bag.equal
         (R.Eval.query db (R.Query.minus R.Query.empty q))
         (R.Eval.naive_query db (R.Query.minus R.Query.empty q))
  in
  (* delta terms share the view's plan — exercise the cache-hit path too *)
  let u = ins "r1" [ i mod 5; (i + 1) mod 5 ] in
  let delta = R.Query.view_delta view u in
  ok
  && R.Bag.equal (R.Eval.query db delta) (R.Eval.naive_query db delta)

let plan_cache_stress () =
  let before = R.Plan.cache_stats () in
  let n_domains = 4 and per_domain = 50 in
  let tasks = n_domains * per_domain in
  (* Domains are spawned directly (not through a pool) so each one is
     guaranteed to compile the overlapping skeletons itself — the caller
     of Pool.map could otherwise drain the whole queue alone on a busy
     single-core box and leave nothing concurrent to observe. *)
  let results =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            Array.init per_domain (fun i -> stress_task ((d * per_domain) + i))))
    |> List.map Domain.join
    |> Array.concat
  in
  Array.iteri
    (fun i ok ->
      check_bool (Printf.sprintf "task %d: planned = naive" i) true ok)
    results;
  let after = R.Plan.cache_stats () in
  (* Every spawned domain built its own domain-local cache. *)
  check_bool "more than one domain has a cache" true
    (after.R.Plan.domains >= n_domains);
  check_bool "compilations happened" true
    (after.R.Plan.misses > before.R.Plan.misses);
  check_bool "the shared skeletons were cache hits" true
    (after.R.Plan.hits - before.R.Plan.hits > tasks);
  (* The aggregate is exactly the sum of the per-domain slots — atomics,
     no torn reads. *)
  let sum =
    List.fold_left
      (fun acc (s : R.Plan.stats) ->
        {
          R.Plan.domains = acc.R.Plan.domains + s.R.Plan.domains;
          plans = acc.R.Plan.plans + s.R.Plan.plans;
          hits = acc.R.Plan.hits + s.R.Plan.hits;
          misses = acc.R.Plan.misses + s.R.Plan.misses;
          evictions = acc.R.Plan.evictions + s.R.Plan.evictions;
        })
      { R.Plan.domains = 0; plans = 0; hits = 0; misses = 0; evictions = 0 }
      (R.Plan.per_domain_stats ())
  in
  check_bool "aggregate = sum of per-domain stats" true
    (R.Plan.cache_stats () = sum);
  check_bool "every domain's live plans fit the bound" true
    (List.for_all
       (fun (s : R.Plan.stats) -> s.R.Plan.plans <= 1024)
       (R.Plan.per_domain_stats ()))

(* Reading aggregated stats *while* other domains hammer the cache: the
   totals must be monotone between two reads (atomic counters, no torn
   or sliding-backwards values). *)
let stats_read_under_fire () =
  P.with_pool ~workers:4 (fun pool ->
      let reads = ref [] in
      let _ =
        P.map pool
          (fun i ->
            if i = 0 then
              (* one lane polls the aggregate while the others compile *)
              for _ = 1 to 50 do
                let s = R.Plan.cache_stats () in
                reads := (s.R.Plan.hits, s.R.Plan.misses) :: !reads
              done
            else ignore (stress_task i);
            true)
          (Array.init 64 Fun.id)
      in
      let rec monotone = function
        | (h2, m2) :: ((h1, m1) :: _ as rest) ->
          (* reads were consed, so the list is newest-first *)
          h2 >= h1 && m2 >= m1 && monotone rest
        | _ -> true
      in
      check_bool "aggregated counters only grow" true (monotone !reads))

(* ------------------------------------------------------------------ *)
(* Sharded view maintenance: Engine ~shard must be a pure speedup       *)
(* ------------------------------------------------------------------ *)

(* Two views per source so every update event really fans out over the
   pool (with one hosted view per relation the shard path degenerates to
   the sequential one). The whole result — states, verdicts, counters —
   must be identical without a pool and at any worker count. *)
let sharded_run_is_deterministic () =
  let w = Workload.Scenarios.scaled ~c:4 ~updates_per_source:3 ~seed:11 ~n:6 () in
  let extra_views =
    List.mapi
      (fun i _ ->
        let rel1 = Printf.sprintf "s%d_r1" i in
        R.View.natural_join
          ~name:(Printf.sprintf "x%d" i)
          ~proj:[ R.Attr.qualified rel1 "W" ]
          [
            R.Schema.of_names ~key:[ "W" ] rel1 [ "W"; "X" ];
            R.Schema.of_names ~key:[ "Y" ]
              (Printf.sprintf "s%d_r2" i)
              [ "X"; "Y" ];
          ])
      w.Workload.Scenarios.sources
  in
  let run shard =
    Core.Engine.run ?shard
      ~schedule:(Core.Scheduler.Random 9)
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:(fed_sites w.Workload.Scenarios.sources)
      ~views:(defs (w.Workload.Scenarios.views @ extra_views))
      ~updates:w.Workload.Scenarios.updates ()
  in
  let base = run None in
  check_int "twelve views maintained" 12 (List.length base.Core.Engine.reports);
  List.iter
    (fun workers ->
      P.with_pool ~workers (fun pool ->
          let r = run (Some pool) in
          let label fmt = Printf.sprintf "workers=%d: %s" workers fmt in
          List.iter
            (fun (view, b) ->
              check_bag (label view) b
                (List.assoc view r.Core.Engine.final_mvs))
            base.Core.Engine.final_mvs;
          Alcotest.(check (list (pair string report_testable)))
            (label "reports") base.Core.Engine.reports
            r.Core.Engine.reports;
          check_bool (label "metrics identical") true
            (base.Core.Engine.metrics = r.Core.Engine.metrics)))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "Pool.map = sequential map (order and values)" `Quick
      map_matches_sequential;
    Alcotest.test_case "sharded maintenance is deterministic at any PAR"
      `Quick sharded_run_is_deterministic;
    Alcotest.test_case "Pool.map_list preserves order" `Quick
      map_list_preserves_order;
    Alcotest.test_case "a pool is reusable across maps" `Quick
      pool_is_reusable;
    Alcotest.test_case "exceptions propagate like a sequential map" `Quick
      exceptions_propagate_lowest_index;
    Alcotest.test_case "PAR knob parsing" `Quick par_knob_parsing;
    Alcotest.test_case "plan cache under concurrent compilation = naive"
      `Quick plan_cache_stress;
    Alcotest.test_case "cache_stats reads cleanly under fire" `Quick
      stats_read_under_fire;
  ]
