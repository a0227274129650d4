(* The benchmark command. Usage:

     main.exe --workload grow|wide|catalog --seed N --seconds S --trace 0|1

   The seed fixes [instances] workload instances (seeds 4N .. 4N+3), so
   one run's figures average over several generated inputs. Each
   instance runs once to warm the evaluator's caches; then the instances
   run in turn through [Core.Engine.run] until S seconds have passed, and
   every run is gated for correctness. Each instance is set up again
   before each of its measured runs. Every measured set-up and run is
   bracketed by calibrations of the host's speed ([Host]) and rescaled to
   a host of reference speed, because the shared machine's speed drifts
   in phases longer than one window (LEDGER.md, Noise). An instance's
   run time and set-up time are the medians of its rescaled ones. With
   --trace 0 the command prints the end-to-end metrics; with --trace 1 it
   pairs each untraced run with a traced replay (see Replay) and prints
   the per-layer ledger. Every metric is printed by name with its unit;
   the last line of standard output is one JSON object. The exit code is
   non-zero when any view fails its gate, a count does not repeat, or the
   replay diverges from the run it replays. *)

open Vmbench

let now_ns = Measure.now_ns
let seconds_of_ns ns = float_of_int ns *. 1e-9
let instances = 4

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (List.sort Float.compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Instance [i] of the seed: generation plus building the sites, views
   and catalog. *)
let set_up name seed i = Workloads.make name ((seed * instances) + i)

(* The time of one set-up of instance [i], after a full major
   collection. *)
let set_up_s name seed i =
  Gc.compact ();
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (set_up name seed i));
  seconds_of_ns (now_ns () - t0)

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-36s %22s %s\n" m.name (json_number m.value) m.unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          metrics))

(* The process's high-water mark of the major heap, in MB. OCaml never
   resets it, so it covers everything the process has done so far. *)
let top_heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Warm-up, then whole rounds over the instances until [seconds] have
   passed (at least [min_rounds]). [before i] is called before each
   measured run of instance [i], outside its timing, and [each i r] sees
   that run [r] when it passed its gate. Returns the views attempted
   and failed over every run, warm-ups included, and [top_heap_mb] read
   right after the warm-up round: the peak over set-up and one
   [Engine.run] per instance, before any measured run or lag pass can
   raise it. *)
let measure_loop ?(before = ignore) ~seconds ~min_rounds ws each =
  let attempted = ref 0 and failed = ref 0 in
  let gated w =
    let r = Measure.untraced w in
    let bad = Measure.failed_views w r in
    attempted := !attempted + List.length w.Workloads.views;
    failed := !failed + List.length bad;
    (match r.Measure.result with
    | Error e -> Printf.eprintf "Engine.run raised: %s\n%!" e
    | Ok _ ->
      List.iter (fun v -> Printf.eprintf "view %s failed its gate\n%!" v) bad);
    if bad = [] then Some r else None
  in
  List.iter (fun w -> ignore (gated w)) ws;
  let warm_peak_mb = top_heap_mb () in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rec round k =
    if k < min_rounds || now_ns () < t_end then begin
      List.iteri
        (fun i w ->
          before i;
          Option.iter (each i) (gated w))
        ws;
      round (k + 1)
    end
  in
  round 0;
  (!attempted, !failed, warm_peak_mb)

(* A set-up takes milliseconds and a run under a second, and the
   machine's speed drifts over tens of seconds, so each measured set-up
   and run is timed between two calibrations of the host and rescaled by
   [Host.reference_s] over their mean. Each instance's set-up and run
   times are the medians of its rescaled ones; [setup_s] is the median
   over the instances. The calibrations start after the warm-up round,
   so they do not raise [peak_heap_mb]. *)
let end_to_end ~seconds name seed =
  let ws = List.init instances (set_up name seed) in
  let setups = Array.make instances [] in
  let times = Array.make instances [] in
  let counts = Array.make instances [] in
  let lags = Array.make instances [] in
  (* The last calibration, and the set-up and run measured since it. *)
  let calibrated = ref None and setup_t = ref 0. and pending = ref None in
  let calibrate () =
    let c = Host.calibrate () in
    (match (!calibrated, !pending) with
    | Some c0, Some (i, setup, run) ->
      let scale = Host.reference_s /. ((c0 +. c) /. 2.) in
      setups.(i) <- (setup *. scale) :: setups.(i);
      times.(i) <- (run *. scale) :: times.(i)
    | _ -> ());
    calibrated := Some c;
    pending := None
  in
  let before i =
    calibrate ();
    setup_t := set_up_s name seed i
  in
  let attempted, failed, peak_heap_mb =
    measure_loop ~before ~seconds ~min_rounds:2 ws (fun i r ->
        match (r.Measure.result, r.Measure.counts) with
        | Ok res, Some c ->
          pending := Some (i, !setup_t, seconds_of_ns r.Measure.wall_ns);
          counts.(i) <- c :: counts.(i);
          (* The lags of the first two measured runs, read after the
             timed region, must agree like every other count. *)
          if List.length lags.(i) < 2 then
            lags.(i) <- Lag.of_trace res.Core.Engine.trace :: lags.(i)
        | _ -> ())
  in
  calibrate ();
  let repeatable =
    Array.for_all
      (function c :: rest -> List.for_all (( = ) c) rest | [] -> false)
      counts
    && Array.for_all (function [ a; b ] -> a = b | _ -> false) lags
  in
  if not repeatable then
    prerr_endline "a count did not repeat across repeats of one instance";
  let metrics =
    if not repeatable then []
    else
      let sum f =
        Array.fold_left (fun acc cs -> acc +. f (List.hd cs)) 0. counts
      in
      let updates = sum (fun c -> float_of_int c.Measure.updates) in
      let per_update f = sum f /. updates in
      let pooled_lags = List.concat_map List.hd (Array.to_list lags) in
      [
        {
          name = "updates_per_s";
          unit_ = "updates/s";
          value =
            updates
            /. Array.fold_left (fun acc ts -> acc +. median ts) 0. times;
        };
        {
          name = "setup_s";
          unit_ = "s";
          value = median (List.map median (Array.to_list setups));
        };
        {
          name = "msgs_per_update";
          unit_ = "msgs/update";
          value = per_update (fun c -> float_of_int c.Measure.messages);
        };
        {
          name = "bytes_per_update";
          unit_ = "bytes/update";
          value = per_update (fun c -> float_of_int c.Measure.bytes);
        };
        {
          name = "source_io_per_update";
          unit_ = "IOs/update";
          value = per_update (fun c -> float_of_int c.Measure.source_io);
        };
        {
          name = "alloc_words_per_update";
          unit_ = "words/update";
          value = per_update (fun c -> c.Measure.words);
        };
        { name = "peak_heap_mb"; unit_ = "MB"; value = peak_heap_mb };
        {
          name = "install_lag_p50";
          unit_ = "events";
          value = Lag.quantile pooled_lags 0.5;
        };
        {
          name = "install_lag_p99";
          unit_ = "events";
          value = Lag.quantile pooled_lags 0.99;
        };
        {
          name = "ok_view_share";
          unit_ = "ratio";
          value = 1. -. (float_of_int failed /. float_of_int (max 1 attempted));
        };
      ]
  in
  let correct = failed = 0 && repeatable in
  print_result ~correct ~attempted ~failed metrics;
  correct

(* The per-layer ledger: every figure is the median over all replayed
   runs, instances mixed. *)
let per_layer ~seconds name seed =
  let ws = List.init instances (set_up name seed) in
  let ledgers = ref [] and mismatch = ref None in
  let attempted, failed, _ =
    measure_loop ~seconds ~min_rounds:1 ws (fun i r ->
        match r.Measure.result with
        | Error _ -> ()
        | Ok res -> (
          Gc.compact ();
          match Replay.run (List.nth ws i) res with
          | l -> ledgers := (l, r.Measure.wall_ns) :: !ledgers
          | exception Replay.Mismatch m -> mismatch := Some m))
  in
  Option.iter (fun m -> prerr_endline ("replay mismatch: " ^ m)) !mismatch;
  let metrics =
    match (!ledgers, !mismatch) with
    | [], _ | _, Some _ -> []
    | ledgers, None ->
      let med f = median (List.map f ledgers) in
      let ratio a b = float_of_int a /. float_of_int b in
      let layer_metrics lname =
        let layer f =
          med (fun (l, _) ->
              f
                (List.find
                   (fun (x : Replay.layer) -> String.equal x.Replay.name lname)
                   l.Replay.layers)
                l)
        in
        [
          {
            name = lname ^ ".calls";
            unit_ = "count";
            value = layer (fun x _ -> float_of_int x.Replay.calls);
          };
          {
            name = lname ^ ".busy_s";
            unit_ = "s";
            value = layer (fun x _ -> Replay.busy_s x);
          };
          {
            name = lname ^ ".share";
            unit_ = "ratio";
            value = layer (fun x l -> ratio x.Replay.busy_ns l.Replay.wall_ns);
          };
          {
            name = lname ^ ".alloc_words";
            unit_ = "words";
            value = layer (fun x _ -> x.Replay.words);
          };
          {
            name = lname ^ ".tail_ratio";
            unit_ = "ratio";
            value =
              layer (fun x l ->
                  if String.equal lname "consistency" then
                    l.Replay.consistency_tail_ratio
                  else Replay.tail_ratio x);
          };
        ]
      in
      let count name unit_ f =
        { name; unit_; value = med (fun (l, _) -> float_of_int (f l)) }
      in
      List.concat_map
        (fun (x : Replay.layer) -> layer_metrics x.Replay.name)
        (fst (List.hd ledgers)).Replay.layers
      @ [
          count "source_site.answer.tuples" "tuples" (fun l ->
              l.Replay.answer_tuples);
          count "source_site.io" "IOs" (fun l -> l.Replay.source_io);
          count "messaging.wire_msgs" "msgs" (fun l -> l.Replay.wire_msgs);
          count "messaging.bytes" "bytes" (fun l -> l.Replay.wire_bytes);
          count "messaging.queue_max" "msgs" (fun l -> l.Replay.queue_max);
          count "warehouse.inflight_max" "queries" (fun l ->
              l.Replay.inflight_max);
          {
            name = "warehouse.shared_hit_ratio";
            unit_ = "ratio";
            value = med (fun (l, _) -> l.Replay.shared_hit_ratio);
          };
          count "algorithm.queries" "queries" (fun l ->
              l.Replay.algorithm_queries);
          count "algorithm.installs" "installs" (fun l ->
              l.Replay.algorithm_installs);
          {
            name = "replay.residual_share";
            unit_ = "ratio";
            value =
              med (fun (l, _) ->
                  let busy =
                    List.fold_left
                      (fun acc (x : Replay.layer) -> acc + x.Replay.busy_ns)
                      0 l.Replay.layers
                  in
                  1. -. ratio busy l.Replay.wall_ns);
          };
          {
            name = "replay.overhead_x";
            unit_ = "x";
            value =
              med (fun (l, untraced_ns) -> ratio l.Replay.wall_ns untraced_ns);
          };
        ]
  in
  let correct = failed = 0 && !mismatch = None && metrics <> [] in
  print_result ~correct ~attempted ~failed metrics;
  correct

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " grow | wide | catalog");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
      ( "--trace",
        Arg.Set_int trace,
        " 0: end-to-end metrics, 1: per-layer ledger" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !seed < 0 then begin
    prerr_endline "--seed must be non-negative";
    exit 2
  end;
  let ok =
    match !trace with
    | 0 -> end_to_end ~seconds:!seconds !workload !seed
    | 1 -> per_layer ~seconds:!seconds !workload !seed
    | _ ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  in
  exit (if ok then 0 else 1)
