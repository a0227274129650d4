(* Staged delta programs against the interpreted planner and the naive
   reference.

   [Delta_program] resolves a view's maintenance work per update class at
   registration time; these properties pin its single-update [apply] and
   batched [apply_batch] to [Viewdef.delta] + [Eval.query] (the
   interpreted path it replaces) and to [Eval.naive_query] (the
   cross-product ground truth), on random simple and compound
   (UNION/EXCEPT) views, random signed databases and random same-class
   batches including the empty and singleton ones. A final set of
   end-to-end cases checks that flipping the compiled/interpreted toggle
   never changes a run's serialized output — byte for byte. *)

open Helpers
module R = Relational
module W = Workload
module DP = R.Delta_program

(* ------------------------------------------------------------------ *)
(* Generators (view/db/update generators shared with Test_plan_equiv)   *)
(* ------------------------------------------------------------------ *)

(* A same-arity restriction of [v] for compound parts: identical sources
   and projection, a fresh condition. *)
let restrict (v : R.View.t) k =
  R.View.natural_join
    ~name:(v.R.View.name ^ "r")
    ~extra_cond:
      (R.Predicate.Cmp
         ( R.Predicate.Le,
           R.Predicate.Col (List.hd v.R.View.proj),
           R.Predicate.Const (R.Value.Int k) ))
    ~proj:v.R.View.proj v.R.View.sources

let viewdef_gen =
  QCheck.Gen.(
    let* v = Test_plan_equiv.view_gen in
    let* shape = int_bound 2 in
    match shape with
    | 0 -> return (R.Viewdef.simple v)
    | _ ->
      let* k = int_bound 4 in
      let a = R.Viewdef.simple v in
      let b = R.Viewdef.simple (restrict v k) in
      return
        (if shape = 1 then R.Viewdef.union ~name:"CV" a b
         else R.Viewdef.diff ~name:"CV" a b))

(* A batch shares one update class: relation and kind fixed, tuples (0-4
   of them, duplicates welcome) free. *)
let batch_gen =
  QCheck.Gen.(
    let* rel = oneofl [ "r1"; "r2"; "r3" ] in
    let* insert = bool in
    let* tuples =
      list_size (int_bound 4)
        (map R.Tuple.ints (list_size (return 2) (int_bound 4)))
    in
    return (rel, (if insert then R.Update.Insert else R.Update.Delete), tuples))

let print_setup (vd, db, (rel, kind, tuples)) =
  Format.asprintf "%a@.%a@.%s %s [%s]" R.Viewdef.pp vd R.Db.pp db
    (match kind with R.Update.Insert -> "insert" | R.Update.Delete -> "delete")
    rel
    (String.concat "; " (List.map R.Tuple.to_string tuples))

let arb_setup =
  QCheck.make ~print:print_setup
    QCheck.Gen.(
      let* vd = viewdef_gen in
      let* db = Test_plan_equiv.db_gen in
      let* batch = batch_gen in
      return (vd, db, batch))

let update_of ~rel ~kind t =
  match kind with
  | R.Update.Insert -> R.Update.insert rel t
  | R.Update.Delete -> R.Update.delete rel t

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Per update: the staged program's apply = the interpreted delta query =
   the naive reference, and a program exists exactly when the view
   mentions the relation. *)
let single_equiv =
  QCheck.Test.make ~name:"staged apply = interpreted delta = naive" ~count:400
    arb_setup (fun (vd, db, (rel, kind, tuples)) ->
      let staged = DP.stage vd in
      List.for_all
        (fun tuple ->
          let u = update_of ~rel ~kind tuple in
          let q = R.Viewdef.delta vd u in
          let interpreted = R.Eval.query db q in
          match DP.of_update staged u with
          | None ->
            (not (R.Viewdef.mentions vd rel)) && R.Bag.is_empty interpreted
          | Some prog ->
            R.Viewdef.mentions vd rel
            && R.Bag.equal (DP.apply prog db tuple) interpreted
            && R.Bag.equal interpreted (R.Eval.naive_query db q))
        tuples)

(* The batched pass = the signed sum of per-update passes = the
   interpreted per-update sum; includes empty and singleton batches.
   [View.make] rejects duplicate relations, so every staged program is
   linear and batches really take the one-pass path. *)
let batch_equiv =
  QCheck.Test.make ~name:"apply_batch = summed per-update deltas" ~count:400
    arb_setup (fun (vd, db, (rel, kind, tuples)) ->
      let staged = DP.stage vd in
      let interpreted =
        List.fold_left
          (fun acc t ->
            R.Bag.plus acc
              (R.Eval.query db (R.Viewdef.delta vd (update_of ~rel ~kind t))))
          R.Bag.empty tuples
      in
      match DP.find staged ~rel ~kind with
      | None -> (not (R.Viewdef.mentions vd rel)) && R.Bag.is_empty interpreted
      | Some prog ->
        let batched = DP.apply_batch prog db tuples in
        let per_tuple =
          List.fold_left
            (fun acc t -> R.Bag.plus acc (DP.apply prog db t))
            R.Bag.empty tuples
        in
        DP.linear prog
        && R.Bag.equal batched per_tuple
        && R.Bag.equal batched interpreted)

(* [runs] splits on class boundaries only, preserving order and content. *)
let runs_partition =
  QCheck.Test.make ~name:"runs partition a mixed batch" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 8)
           (let* rel = oneofl [ "r1"; "r2" ] in
            let* insert = bool in
            let* x = int_bound 3 in
            let t = R.Tuple.ints [ x; x + 1 ] in
            return
              (if insert then R.Update.insert rel t else R.Update.delete rel t))))
    (fun us ->
      let rs = DP.runs us in
      List.concat rs = us
      && List.for_all
           (fun run ->
             match run with
             | [] -> false
             | (u : R.Update.t) :: rest ->
               List.for_all
                 (fun (v : R.Update.t) ->
                   String.equal v.R.Update.rel u.R.Update.rel
                   && v.R.Update.kind = u.R.Update.kind)
                 rest)
           rs
      && List.length rs
         = List.length
             (List.filteri
                (fun i (u : R.Update.t) ->
                  i = 0
                  ||
                  let p = List.nth us (i - 1) in
                  (not (String.equal p.R.Update.rel u.R.Update.rel))
                  || p.R.Update.kind <> u.R.Update.kind)
                us))

(* ------------------------------------------------------------------ *)
(* Deterministic cases                                                 *)
(* ------------------------------------------------------------------ *)

let with_interpreted f =
  DP.set_compiled false;
  Fun.protect ~finally:(fun () -> DP.set_compiled true) f

let empty_and_singleton_batches () =
  let db = db_of [ (r1, [ [ 1; 2 ]; [ 4; 5 ] ]); (r2, [ [ 2; 3 ] ]) ] in
  let vd = R.Viewdef.simple (view_w ()) in
  let staged = DP.stage vd in
  let prog =
    match DP.find staged ~rel:"r1" ~kind:R.Update.Insert with
    | Some p -> p
    | None -> Alcotest.fail "no program for r1 inserts"
  in
  check_bag "empty batch = empty delta" R.Bag.empty (DP.apply_batch prog db []);
  let t = R.Tuple.ints [ 9; 2 ] in
  check_bag "singleton batch = apply"
    (DP.apply prog db t)
    (DP.apply_batch prog db [ t ]);
  check_bool "simple view programs are linear" true (DP.linear prog);
  check_bool "mentioned relation stages a non-empty program" false
    (DP.is_empty prog);
  check_bool "unmentioned relation has no program" true
    (DP.find staged ~rel:"r3" ~kind:R.Update.Insert = None)

(* SC's batched on_batch must produce the same outcome (installs and
   final state) as the interpreted sequential replay. *)
let sc_batch_outcome_matches () =
  let db =
    db_of
      [ (r1, [ [ 1; 2 ]; [ 4; 5 ] ]); (r2, [ [ 2; 3 ]; [ 5; 6 ] ]); (r3, []) ]
  in
  let view = view_w3 () in
  let cfg = Core.Algorithm.Config.of_view_db view db in
  let batch =
    [
      ins "r1" [ 9; 2 ]; ins "r1" [ 8; 2 ]; del "r1" [ 1; 2 ];
      ins "r3" [ 3; 1 ]; ins "r3" [ 6; 2 ]; del "r2" [ 5; 6 ];
    ]
  in
  let compiled_t = Core.Sc.create cfg in
  let compiled_out = Core.Sc.on_batch compiled_t batch in
  let interp_t = Core.Sc.create cfg in
  let interp_out = with_interpreted (fun () -> Core.Sc.on_batch interp_t batch) in
  Alcotest.(check (list bag_testable))
    "same installs" interp_out.Core.Algorithm.installs
    compiled_out.Core.Algorithm.installs;
  check_bag "same final mv" (Core.Sc.mv interp_t) (Core.Sc.mv compiled_t);
  check_bool "same replica" true
    (R.Db.equal (Core.Sc.replica interp_t) (Core.Sc.replica compiled_t))

(* Flipping the toggle must not change one byte of a run's serialized
   result — trace, metrics, consistency verdicts, final states — for any
   algorithm or batch size. This is the engine-level counterpart of the
   bag-equality properties above. *)
let toggle_byte_identical () =
  let { W.Scenarios.db; view; updates } =
    W.Scenarios.example6
      (W.Spec.make ~c:30 ~j:3 ~k_updates:24 ~insert_ratio:0.6 ~seed:9 ())
  in
  let run_json ~algorithm ~batch_size =
    Core.Json_export.result
      (Core.Engine.run ~schedule:Core.Scheduler.Round_robin ~batch_size
         ~creator:(Core.Registry.creator_exn algorithm)
         ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ())
  in
  List.iter
    (fun algorithm ->
      List.iter
        (fun batch_size ->
          let on = run_json ~algorithm ~batch_size in
          let off =
            with_interpreted (fun () -> run_json ~algorithm ~batch_size)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s batch=%d" algorithm batch_size)
            off on)
        [ 1; 4 ])
    [ "sc"; "eca"; "rv" ]

let staging_cache_hits () =
  let vd = R.Viewdef.simple (view_w ()) in
  let before = (DP.cache_stats ()).DP.hits in
  let s1 = DP.stage vd in
  let s2 = DP.stage vd in
  check_bool "same staged value" true (s1 == s2);
  check_bool "re-staging hits the cache" true
    ((DP.cache_stats ()).DP.hits > before);
  check_bool "staged view is the input" true
    (R.Viewdef.equal (DP.staged_view s1) vd)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ single_equiv; batch_equiv; runs_partition ]
  @ [
      Alcotest.test_case "empty and singleton batches" `Quick
        empty_and_singleton_batches;
      Alcotest.test_case "SC batched = sequential outcome" `Quick
        sc_batch_outcome_matches;
      Alcotest.test_case "toggle is byte-identical end to end" `Quick
        toggle_byte_identical;
      Alcotest.test_case "staging cache" `Quick staging_cache_hits;
    ]
