(* Regenerates every table and figure of the paper's evaluation
   (Section 6 / Appendix D), printing the analytic closed forms next to
   measured values from the full simulator, then runs Bechamel wall-clock
   comparisons of the algorithms.

   Sections:
     [Table 1]      parameter defaults
     [Sec 6.1]      message counts M
     [Figure 6.2]   B versus C, three updates
     [Figure 6.3]   B versus k, C = 100
     [Figure 6.4]   IO versus k, Scenario 1
     [Figure 6.5]   IO versus k, Scenario 2
     [Crossovers]   where RV overtakes ECA
     [Ablation]     compensation cost, ECAK/ECAL/LCA/SC comparisons
     [Bechamel]     wall-clock per algorithm and per figure regeneration

   `bench/main.exe quick` skips the Bechamel section. *)

module R = Relational
module CM = Costmodel
module W = Workload

let params = CM.Params.default
let s_bytes = params.CM.Params.s

(* The one-source site graph of the single-source figures. *)
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

(* A collector when [observe] is set: the engine runs its span layer only
   when handed one. Callers create it inside their timed region, so the
   observed leg pays for its own collector. *)
let collector observe =
  if observe then Some (Observe.Collector.create ()) else None

(* The worst staleness any view of an observed run showed at a quiescence
   probe: 0 is the strong-consistency signature of the ECA rungs. *)
let stale_quiesce_max ~section (m : Core.Metrics.t) =
  match m.Core.Metrics.observe with
  | None -> failwith (section ^ ": observed cell carries no gauges")
  | Some o ->
    List.fold_left
      (fun acc (_, g) -> max acc g.Core.Metrics.stale_quiesce_max)
      0 o.Core.Metrics.staleness

(* ------------------------------------------------------------------ *)
(* Parallelism knob                                                    *)
(* ------------------------------------------------------------------ *)

(* `--par=N` on the command line, else the PAR environment variable, else
   every core the machine offers. `PAR=1` (or `--par=1`) is the
   sequential path: no domains are spawned and every run executes in
   section order, exactly as before the pool existed. The figure matrix
   and the reliability ablation fan out over the pool; all recording and
   printing stays sequential, so the emitted artifacts are identical
   (modulo measured wall-clock noise) at any worker count. *)
let workers =
  let from_argv =
    Array.fold_left
      (fun acc arg ->
        match String.index_opt arg '=' with
        | Some i when String.sub arg 0 (i + 1) = "--par=" ->
          Parallel.Pool.parse_workers
            (String.sub arg (i + 1) (String.length arg - i - 1))
        | _ -> acc)
      None Sys.argv
  in
  match from_argv with
  | Some n -> n
  | None -> Parallel.Pool.default_workers ()

let pool = Parallel.Pool.create ~workers ()

(* ------------------------------------------------------------------ *)
(* Machine-readable results                                            *)
(* ------------------------------------------------------------------ *)

(* Every measured simulator run is appended here and dumped as
   BENCH_results.json at the end — one record per run, grouped by the
   section (figure/table/ablation) that requested it. The schema is
   documented in EXPERIMENTS.md; scripts/perf_guard.sh reads only the
   "gates" table, the top-level object keys and the run figures. *)
type json_run = {
  r_figure : string;  (* section header active when the run executed *)
  r_algorithm : string;  (* algorithm plus schedule/period qualifiers *)
  r_wall_s : float;
  r_messages : int;
  r_tuples : int;
  r_bytes : int;
  r_io : int;
  (* transport-level delivery stats; Some only for runs over faulty
     channels / the reliable sublayer (the reliability ablation) *)
  r_delivery : Core.Metrics.delivery option;
  (* per-edge breakdown of the same counters, one entry per source site;
     non-empty only for federated runs (schema v4) *)
  r_site_delivery : (string * Core.Metrics.delivery) list;
}

let json_runs : json_run list ref = ref []
let current_section = ref "startup"

let header title =
  current_section := title;
  Printf.printf "\n================ %s ================\n" title

let schedule_label = function
  | Core.Scheduler.Best_case -> "[best]"
  | Core.Scheduler.Worst_case -> "[worst]"
  | Core.Scheduler.Round_robin -> "[rr]"
  | Core.Scheduler.Random seed -> Printf.sprintf "[rand=%d]" seed
  | Core.Scheduler.Explicit _ -> "[explicit]"
  | Core.Scheduler.Bounded_inflight b -> Printf.sprintf "[inflight<=%d]" b
  | Core.Scheduler.Weighted_fair q -> Printf.sprintf "[wf=%d]" q

let algo_label ?rv_period ~schedule algorithm =
  algorithm
  ^ (match rv_period with
    | Some p -> Printf.sprintf "[p=%d]" p
    | None -> "")
  ^ schedule_label schedule

(* Wall clock of `bench/main.exe quick` at the pre-plan-compilation seed
   (list-based bags, per-call term analysis, recomputing oracle), kept in
   the emitted JSON so before/after is visible in the committed artifact.
   Read from the committed bench/baseline.json rather than hardcoded, so
   the number cannot silently rot apart from the artifact that defines
   it; when the file is missing (e.g. running from another directory) the
   field is simply omitted from the output. *)
let scan_json_float ~field path =
  let contains line sub =
    let n = String.length sub and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = sub || go (i + 1)) in
    go 0
  in
  if not (Sys.file_exists path) then None
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let needle = Printf.sprintf "\"%s\"" field in
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
            match String.index_opt line ':' with
            | Some i when contains (String.sub line 0 i) needle ->
              let v =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              let v =
                match String.index_opt v ',' with
                | Some j -> String.sub v 0 j
                | None -> v
              in
              float_of_string_opt (String.trim v)
            | _ -> loop ())
        in
        loop ())

let seed_quick_wall_clock_s =
  scan_json_float ~field:"seed_quick_wall_clock_s" "bench/baseline.json"

(* The top-level objects of BENCH_results.json, in emission order, each
   pre-rendered by the section named after it so the writer stays a dumb
   serializer. "observe" opens check_determinism.sh's normalization
   window, which runs to the end of the file. *)
let sections =
  List.map
    (fun name -> (name, ref None))
    [ "observe"; "throughput"; "catalog"; "scaling"; "selfmaint"; "evolution" ]

let set_section name json = List.assoc name sections := Some json

(* The gate table: every perf claim scripts/perf_guard.sh enforces, with
   its bound. A [Baseline_x f] bound is [f] times the same gate's value
   in the baseline file. Correctness claims are not gates: the bench
   fails outright (failwith) before it writes anything. *)
type bound =
  | Absolute of float
  | Baseline_x of float

let gates : (string * float * string * bound) list ref = ref []

let gate ~name ~op bound value = gates := (name, value, op, bound) :: !gates

let write_json ~path ~mode ~total_wall_s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let sum_run_wall_s =
        List.fold_left (fun acc r -> acc +. r.r_wall_s) 0.0 !json_runs
      in
      Printf.fprintf oc "{\n";
      Printf.fprintf oc "  \"schema_version\": 11,\n";
      Printf.fprintf oc "  \"mode\": %s,\n" (Core.Json_export.str mode);
      Printf.fprintf oc "  \"workers\": %d,\n" workers;
      Printf.fprintf oc "  \"total_wall_clock_s\": %.3f,\n" total_wall_s;
      (match seed_quick_wall_clock_s with
      | Some s -> Printf.fprintf oc "  \"seed_quick_wall_clock_s\": %.3f,\n" s
      | None -> ());
      Printf.fprintf oc "  \"gates\": [";
      List.iteri
        (fun i (name, value, op, bound) ->
          Printf.fprintf oc
            "%s\n    { \"name\": %s, \"value\": %.6f, \"op\": %s, \"bound\": %s }"
            (if i = 0 then "" else ",")
            (Core.Json_export.str name) value (Core.Json_export.str op)
            (match bound with
            | Absolute b -> Printf.sprintf "%.1f" b
            | Baseline_x f -> Printf.sprintf "{ \"baseline_x\": %.1f }" f))
        (* Summed per-run wall clock: the work done, independent of how
           many domains it was spread over, unlike total_wall_clock_s. *)
        (("sum_run_wall_clock_s", sum_run_wall_s, "<=", Baseline_x 2.0)
        :: List.rev !gates);
      Printf.fprintf oc "\n  ],\n";
      List.iter
        (fun (name, json) ->
          Option.iter
            (Printf.fprintf oc "  %s: %s,\n" (Core.Json_export.str name))
            !json)
        sections;
      Printf.fprintf oc "  \"runs\": [";
      List.iteri
        (fun i r ->
          Printf.fprintf oc "%s\n    { \"figure\": %s, "
            (if i = 0 then "" else ",")
            (Core.Json_export.str r.r_figure);
          Printf.fprintf oc "\"algorithm\": %s, "
            (Core.Json_export.str r.r_algorithm);
          Printf.fprintf oc
            "\"wall_clock_s\": %.6f, \"messages\": %d, \"answer_tuples\": %d, \
             \"bytes\": %d, \"source_io\": %d"
            r.r_wall_s r.r_messages r.r_tuples r.r_bytes r.r_io;
          let delivery_fields d =
            Printf.fprintf oc
              "{ \"ticks\": %d, \"retransmits\": %d, \
               \"dups_dropped\": %d, \"acks\": %d, \"msgs_dropped\": %d, \
               \"msgs_duplicated\": %d, \"delivered\": %d, \
               \"wire_messages\": %d, \"wire_bytes\": %d }"
              d.Core.Metrics.ticks d.Core.Metrics.retransmits
              d.Core.Metrics.dups_dropped d.Core.Metrics.acks
              d.Core.Metrics.msgs_dropped d.Core.Metrics.msgs_duplicated
              d.Core.Metrics.delivered d.Core.Metrics.wire_messages
              d.Core.Metrics.wire_bytes
          in
          (match r.r_delivery with
           | None -> ()
           | Some d ->
             Printf.fprintf oc ", \"delivery\": ";
             delivery_fields d);
          (match r.r_site_delivery with
           | [] -> ()
           | sites ->
             Printf.fprintf oc ", \"site_delivery\": [";
             List.iteri
               (fun j (site, d) ->
                 Printf.fprintf oc "%s{ \"site\": %s, \"delivery\": "
                   (if j = 0 then "" else ", ")
                   (Core.Json_export.str site);
                 delivery_fields d;
                 Printf.fprintf oc " }")
               sites;
             Printf.fprintf oc "]");
          Printf.fprintf oc " }")
        (List.rev !json_runs);
      Printf.fprintf oc "\n  ]\n}\n")

(* ------------------------------------------------------------------ *)
(* Measured runs                                                       *)
(* ------------------------------------------------------------------ *)

type measured = {
  m_messages : int;
  m_tuples : int;  (* answer tuples, the unit the paper prices at S bytes *)
  m_bytes : int;  (* tuples * S, comparable to the analytic B *)
  m_io : int;
}

let record ?delivery ?(site_delivery = []) ~algorithm ~wall_s m =
  json_runs :=
    {
      r_figure = !current_section;
      r_algorithm = algorithm;
      r_wall_s = wall_s;
      r_messages = m.m_messages;
      r_tuples = m.m_tuples;
      r_bytes = m.m_bytes;
      r_io = m.m_io;
      r_delivery = delivery;
      r_site_delivery = site_delivery;
    }
    :: !json_runs

(* Execution is split from recording so the figure matrix can run on the
   domain pool: [exec_*] performs the simulated run and returns everything
   observable (no printing, no shared mutation beyond domain-local plan
   caches), and [record_exec] — always called sequentially, in section
   order — appends to [json_runs] and prints. The runs array therefore
   comes out in exactly the sequential order at any worker count. *)
type exec_result = {
  x_label : string;      (* algorithm + period/schedule qualifiers *)
  x_algorithm : string;  (* bare algorithm name, for diagnostics *)
  x_wall_s : float;
  x_measured : measured;
  x_diverged : string option;  (* Some strongest-label when not convergent *)
}

let exec_example6 ?(scenario = 1) ?(schedule = Core.Scheduler.Best_case)
    ?rv_period ~algorithm spec =
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let catalog =
    if scenario = 1 then W.Scenarios.catalog_scenario1 ()
    else W.Scenarios.catalog_scenario2 ()
  in
  let t0 = Unix.gettimeofday () in
  let result =
    Core.Engine.run ~schedule ?rv_period
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ source_site ~catalog db ] ~views:(defs [ view ]) ~updates ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = result.Core.Engine.metrics in
  let report = List.assoc "V" result.Core.Engine.reports in
  {
    x_label = algo_label ?rv_period ~schedule algorithm;
    x_algorithm = algorithm;
    x_wall_s = wall_s;
    x_measured =
      {
        m_messages = Core.Metrics.messages m;
        m_tuples = m.Core.Metrics.answer_tuples;
        m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
        m_io = m.Core.Metrics.source_io;
      };
    x_diverged =
      (if report.Core.Consistency.convergent then None
       else Some (Core.Consistency.strongest_label report));
  }

let record_exec r =
  (match r.x_diverged with
  | Some label ->
    Printf.printf "!! %s did not converge (%s)\n" r.x_algorithm label
  | None -> ());
  record ~algorithm:r.x_label ~wall_s:r.x_wall_s r.x_measured;
  r.x_measured

let spec_for ?(c = 100) ?(k = 3) ?(seed = 42) () =
  W.Spec.make ~c ~j:4 ~k_updates:k ~seed ()

(* The four corners of every figure: RV recomputing once / every update,
   ECA under the no-contention / full-contention interleavings. *)
type corner_key = { ck_scenario : int; ck_c : int; ck_k : int }

let exec_corner { ck_scenario = scenario; ck_c = c; ck_k = k } =
  let spec = spec_for ~c ~k () in
  [|
    exec_example6 ~scenario ~algorithm:"rv" ~rv_period:k spec;
    exec_example6 ~scenario ~algorithm:"rv" ~rv_period:1 spec;
    exec_example6 ~scenario ~schedule:Core.Scheduler.Best_case
      ~algorithm:"eca" spec;
    exec_example6 ~scenario ~schedule:Core.Scheduler.Worst_case
      ~algorithm:"eca" spec;
  |]

(* Filled by [prefetch_corners] when the pool is parallel; [corners]
   falls back to in-place execution on a miss (always, when PAR=1). *)
let corner_memo : (corner_key, exec_result array) Hashtbl.t =
  Hashtbl.create 64

let corners ?(scenario = 1) ~c ~k () =
  let key = { ck_scenario = scenario; ck_c = c; ck_k = k } in
  let runs =
    match Hashtbl.find_opt corner_memo key with
    | Some runs -> runs
    | None -> exec_corner key
  in
  let m = Array.map record_exec runs in
  (m.(0), m.(1), m.(2), m.(3))

(* ------------------------------------------------------------------ *)
(* The corner matrix (shared by the sections and the prefetch)          *)
(* ------------------------------------------------------------------ *)

(* Every sweep a figure/table section runs, named once so the parallel
   prefetch and the sequential sections can never drift apart. *)
let messages_c = 50
let messages_ks = [ 1; 5; 10; 30 ]
let fig_6_2_cs = [ 1; 2; 5; 8; 10; 12; 15; 20 ]
let fig_6_3_ks = [ 1; 15; 30; 45; 60; 90; 120 ]
let fig_io_ks = [ 1; 3; 5; 7; 9; 11 ]
let crossover_measured_ks = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let compensation_ks = [ 3; 15; 30; 60 ]

let corner_matrix () =
  List.sort_uniq compare
    (List.map (fun k -> { ck_scenario = 1; ck_c = messages_c; ck_k = k })
       messages_ks
    @ List.map (fun c -> { ck_scenario = 1; ck_c = c; ck_k = 3 }) fig_6_2_cs
    @ List.map (fun k -> { ck_scenario = 1; ck_c = 100; ck_k = k }) fig_6_3_ks
    @ List.concat_map
        (fun s ->
          List.map (fun k -> { ck_scenario = s; ck_c = 100; ck_k = k })
            fig_io_ks)
        [ 1; 2 ]
    @ List.map (fun k -> { ck_scenario = 1; ck_c = 100; ck_k = k })
        crossover_measured_ks
    @ List.map (fun k -> { ck_scenario = 1; ck_c = 100; ck_k = k })
        compensation_ks)

(* Fan the deduplicated corner matrix out over the pool. Sections then
   consume memo hits in their own (sequential) order, so the emitted runs
   differ from PAR=1 only in measured wall clock — with the footnote that
   a corner requested by two sections is executed once here but recorded
   by both, where the sequential path re-executes it. *)
let prefetch_corners () =
  if Parallel.Pool.size pool > 1 then begin
    let keys = Array.of_list (corner_matrix ()) in
    let results = Parallel.Pool.map pool exec_corner keys in
    Array.iteri (fun i runs -> Hashtbl.replace corner_memo keys.(i) runs)
      results
  end

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: variables and defaults";
  Format.printf "%a@." CM.Params.rows params;
  let spec = spec_for () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  Printf.printf
    "measured on the generated instance: C=%d J(r2,X)=%.2f J(r3,Y)=%.2f \
     sigma=%.2f\n"
    (Storage.Stats.cardinality db "r1")
    (Storage.Stats.join_factor db "r2" "X")
    (Storage.Stats.join_factor db "r3" "Y")
    (Storage.Stats.selectivity db view)

(* ------------------------------------------------------------------ *)
(* Section 6.1: messages                                               *)
(* ------------------------------------------------------------------ *)

let messages () =
  header "Section 6.1: messages M (query + answer; notifications excluded)";
  Printf.printf "%4s %12s %12s %8s | %10s %10s %10s\n" "k" "RV(s=k)" "RV(s=1)"
    "ECA" "meas RV_k" "meas RV_1" "meas ECA";
  List.iter
    (fun k ->
      let rv_best, rv_worst, eca_best, _ = corners ~c:messages_c ~k () in
      Printf.printf "%4d %12d %12d %8d | %10d %10d %10d\n" k
        (CM.Messages.rv ~k ~period:k)
        (CM.Messages.rv ~k ~period:1)
        (CM.Messages.eca ~k) rv_best.m_messages rv_worst.m_messages
        eca_best.m_messages)
    messages_ks

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

(* Each figure as (header, rows) so the same sweep renders as an aligned
   table on stdout or as a CSV artifact for plotting. *)
let figure_header =
  [ "x"; "RVBest"; "RVWorst"; "ECABest"; "ECAWorst"; "mRVBest"; "mRVWorst";
    "mECABest"; "mECAWorst" ]

let fig_6_2_rows () =
  List.map
    (fun c ->
      let p = CM.Params.make ~c () in
      let rv_b, rv_w, eca_b, eca_w = corners ~c ~k:3 () in
      [ string_of_int c;
        Printf.sprintf "%.0f" (CM.Transfer.rv_best p);
        Printf.sprintf "%.0f" (CM.Transfer.rv_worst p);
        Printf.sprintf "%.0f" (CM.Transfer.eca_best p);
        Printf.sprintf "%.0f" (CM.Transfer.eca_worst p);
        string_of_int rv_b.m_bytes; string_of_int rv_w.m_bytes;
        string_of_int eca_b.m_bytes; string_of_int eca_w.m_bytes ])
    fig_6_2_cs

let fig_6_3_rows () =
  List.map
    (fun k ->
      let rv_b, rv_w, eca_b, eca_w = corners ~c:100 ~k () in
      [ string_of_int k;
        Printf.sprintf "%.0f" (CM.Transfer.rv_best_k params ~k);
        Printf.sprintf "%.0f" (CM.Transfer.rv_worst_k params ~k);
        Printf.sprintf "%.0f" (CM.Transfer.eca_best_k params ~k);
        Printf.sprintf "%.0f" (CM.Transfer.eca_worst_k params ~k);
        string_of_int rv_b.m_bytes; string_of_int rv_w.m_bytes;
        string_of_int eca_b.m_bytes; string_of_int eca_w.m_bytes ])
    fig_6_3_ks

let fig_io_rows ~scenario_id ~scenario () =
  List.map
    (fun k ->
      let rv_b, rv_w, eca_b, eca_w =
        corners ~scenario:scenario_id ~c:100 ~k ()
      in
      [ string_of_int k;
        Printf.sprintf "%.0f" (CM.Io_model.rv_best_k scenario params ~k);
        Printf.sprintf "%.0f" (CM.Io_model.rv_worst_k scenario params ~k);
        Printf.sprintf "%.0f" (CM.Io_model.eca_best_k scenario params ~k);
        Printf.sprintf "%.0f" (CM.Io_model.eca_worst_k scenario params ~k);
        string_of_int rv_b.m_io; string_of_int rv_w.m_io;
        string_of_int eca_b.m_io; string_of_int eca_w.m_io ])
    fig_io_ks

let print_rows rows =
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i = 0 then Printf.printf "%4s" cell
          else begin
            if i = 5 then print_string " |";
            Printf.printf " %9s" cell
          end)
        row;
      print_newline ())
    (figure_header :: rows)

let figure_6_2 () =
  header "Figure 6.2: B versus C (3 updates; bytes, S=4)";
  print_rows (fig_6_2_rows ())

let figure_6_3 () =
  header "Figure 6.3: B versus k (C = 100; bytes, S=4)";
  print_rows (fig_6_3_rows ())

let figure_6_4 () =
  header "Figure 6.4: IO versus k, Scenario 1 (indexes, ample memory)";
  print_rows (fig_io_rows ~scenario_id:1 ~scenario:CM.Io_model.Scenario1 ())

let figure_6_5 () =
  header "Figure 6.5: IO versus k, Scenario 2 (no indexes, 3 blocks)";
  print_rows (fig_io_rows ~scenario_id:2 ~scenario:CM.Io_model.Scenario2 ())

(* `bench/main.exe csv DIR` writes the four figures' series as CSV files
   ready for plotting. *)
let write_csvs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, rows) ->
      let oc = open_out (Filename.concat dir (name ^ ".csv")) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter
            (fun row -> output_string oc (String.concat "," row ^ "\n"))
            (figure_header :: rows)))
    [
      ("fig6_2", fig_6_2_rows ());
      ("fig6_3", fig_6_3_rows ());
      ("fig6_4", fig_io_rows ~scenario_id:1 ~scenario:CM.Io_model.Scenario1 ());
      ("fig6_5", fig_io_rows ~scenario_id:2 ~scenario:CM.Io_model.Scenario2 ());
    ];
  Printf.printf "wrote fig6_{2,3,4,5}.csv to %s\n" dir

(* ------------------------------------------------------------------ *)
(* Crossovers                                                          *)
(* ------------------------------------------------------------------ *)

let crossovers () =
  header "Crossovers (smallest k at which one-shot RV beats ECA)";
  let show name f g hi =
    match CM.Crossover.first_at_or_above ~lo:1 ~hi f g with
    | Some k -> Printf.printf "%-45s k = %d\n" name k
    | None -> Printf.printf "%-45s none below %d\n" name hi
  in
  show "B: ECA best vs RV best (paper: 100)"
    (fun k -> CM.Transfer.eca_best_k params ~k)
    (fun k -> CM.Transfer.rv_best_k params ~k)
    300;
  show "B: ECA worst vs RV best (paper: ~30)"
    (fun k -> CM.Transfer.eca_worst_k params ~k)
    (fun k -> CM.Transfer.rv_best_k params ~k)
    300;
  show "IO S1: ECA best vs RV best (paper: 3)"
    (fun k -> CM.Io_model.eca_best_k CM.Io_model.Scenario1 params ~k)
    (fun k -> CM.Io_model.rv_best_k CM.Io_model.Scenario1 params ~k)
    50;
  show "IO S2: ECA worst vs RV best (paper: 5<k<8)"
    (fun k -> CM.Io_model.eca_worst_k CM.Io_model.Scenario2 params ~k)
    (fun k -> CM.Io_model.rv_best_k CM.Io_model.Scenario2 params ~k)
    50;
  (* measured: sweep k and find where measured worst-case ECA IO
     (Scenario 1) passes measured one-shot RV. *)
  let measured_io k =
    let rv, _, _, eca = corners ~scenario:1 ~c:100 ~k () in
    (float_of_int eca.m_io, float_of_int rv.m_io)
  in
  let table =
    List.map (fun k -> (k, measured_io k)) crossover_measured_ks
  in
  (match List.find_opt (fun (_, (eca, rv)) -> eca >= rv) table with
   | Some (k, _) ->
     Printf.printf "%-45s k = %d\n" "IO S1 measured: ECA worst vs RV once" k
   | None ->
     Printf.printf "%-45s none in sweep\n" "IO S1 measured: ECA worst vs RV once")

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_compensation () =
  header "Ablation: compensation cost (ECA worst - ECA best, measured)";
  Printf.printf "%4s %10s %10s %12s %12s\n" "k" "best B" "worst B" "overhead"
    "analytic";
  List.iter
    (fun k ->
      let _, _, eca_b, eca_w = corners ~c:100 ~k () in
      let analytic =
        CM.Transfer.eca_worst_k params ~k -. CM.Transfer.eca_best_k params ~k
      in
      Printf.printf "%4d %10d %10d %12d %12.0f\n" k eca_b.m_bytes
        eca_w.m_bytes
        (eca_w.m_bytes - eca_b.m_bytes)
        analytic)
    compensation_ks

let run_keyed ~algorithm ~schedule ?(insert_ratio = 0.5) k =
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:k ~insert_ratio ~seed:7 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.keyed spec in
  let t0 = Unix.gettimeofday () in
  let result =
    Core.Engine.run ~schedule
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let m = result.Core.Engine.metrics in
  record
    ~algorithm:(algo_label ~schedule algorithm)
    ~wall_s
    {
      m_messages = Core.Metrics.messages m;
      m_tuples = m.Core.Metrics.answer_tuples;
      m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
      m_io = m.Core.Metrics.source_io;
    };
  m

let ablation_ecak () =
  header "Ablation: ECAK vs ECA on a keyed view (k=40, half deletes)";
  Printf.printf "%-10s %10s %10s %10s\n" "algorithm" "messages" "tuples" "IO";
  List.iter
    (fun algorithm ->
      let m = run_keyed ~algorithm ~schedule:Core.Scheduler.Worst_case 40 in
      Printf.printf "%-10s %10d %10d %10d\n" algorithm
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io)
    [ "eca"; "eca-key"; "eca-local"; "lca"; "rv" ]

let ablation_local_rate () =
  header "Ablation: ECAL local handling (best case, keyed workload, k=40)";
  List.iter
    (fun insert_ratio ->
      let m_eca =
        run_keyed ~algorithm:"eca" ~schedule:Core.Scheduler.Best_case
          ~insert_ratio 40
      in
      let m_ecal =
        run_keyed ~algorithm:"eca-local" ~schedule:Core.Scheduler.Best_case
          ~insert_ratio 40
      in
      Printf.printf
        "insert ratio %.1f: ECA sends %d queries, ECAL sends %d (%.0f%% \
         handled locally)\n"
        insert_ratio m_eca.Core.Metrics.queries_sent
        m_ecal.Core.Metrics.queries_sent
        (100.0
        *. float_of_int
             (m_eca.Core.Metrics.queries_sent
             - m_ecal.Core.Metrics.queries_sent)
        /. float_of_int (max 1 m_eca.Core.Metrics.queries_sent)))
    [ 1.0; 0.5; 0.2 ]

let ablation_sc () =
  header "Ablation: SC (store copies) vs ECA (k=40 keyed workload)";
  let m_sc = run_keyed ~algorithm:"sc" ~schedule:Core.Scheduler.Worst_case 40 in
  let m_eca =
    run_keyed ~algorithm:"eca" ~schedule:Core.Scheduler.Worst_case 40
  in
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:40 ~insert_ratio:0.5 ~seed:7 () in
  let { W.Scenarios.db; _ } = W.Scenarios.keyed spec in
  Printf.printf
    "SC : %d messages, %d transferred tuples, %d source IO, but stores %d \
     base tuples at the warehouse\n"
    (Core.Metrics.messages m_sc)
    m_sc.Core.Metrics.answer_tuples m_sc.Core.Metrics.source_io
    (R.Db.total_tuples db);
  Printf.printf "ECA: %d messages, %d transferred tuples, %d source IO\n"
    (Core.Metrics.messages m_eca)
    m_eca.Core.Metrics.answer_tuples m_eca.Core.Metrics.source_io

let ablation_outer_reads () =
  header "Ablation: Scenario 2 accounting with outer-loop reads charged";
  let spec = spec_for ~c:100 ~k:3 () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  let q = R.Query.of_view view in
  let io count_outer_reads =
    let catalog =
      Storage.Catalog.make ~mode:Storage.Catalog.Limited_memory
        ~count_outer_reads ()
    in
    (Storage.Planner.query catalog db q).Storage.Plan.io
  in
  Printf.printf
    "full view recompute: %d IO (paper accounting) vs %d IO (outer reads \
     charged)\n"
    (io false) (io true)

let ablation_literal_eval () =
  header
    "Ablation: warehouse-local evaluation of literal-only terms (ECA, \
     worst case)";
  Printf.printf "%4s %14s %14s\n" "k" "local (tuples)" "shipped (tuples)";
  List.iter
    (fun k ->
      let spec = spec_for ~c:100 ~k () in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let tuples local_literal_eval =
        let r =
          Core.Engine.run ~schedule:Core.Scheduler.Worst_case
            ~local_literal_eval
            ~creator:(Core.Registry.creator_exn "eca")
            ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.answer_tuples
      in
      Printf.printf "%4d %14d %14d\n" k (tuples true) (tuples false))
    [ 10; 30; 60 ]

let ablation_batching () =
  header "Ablation: batched notifications (Section 7 extension; ECA, k=30)";
  Printf.printf "%6s %10s %10s %10s %10s %8s\n" "batch" "messages" "tuples"
    "IO" "mean lag" "max lag";
  let spec = spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  List.iter
    (fun batch_size ->
      let r =
        Core.Engine.run ~schedule:Core.Scheduler.Best_case ~batch_size
          ~creator:(Core.Registry.creator_exn "eca")
          ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
      in
      let m = r.Core.Engine.metrics in
      let lag = Core.Staleness.of_trace r.Core.Engine.trace "V" in
      Printf.printf "%6d %10d %10d %10d %10.2f %8d\n" batch_size
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
        lag.Core.Staleness.mean_lag lag.Core.Staleness.max_lag)
    [ 1; 2; 5; 10; 30 ]

let ablation_timing () =
  header "Ablation: maintenance timing (Section 2; ECA, k=30)";
  Printf.printf "%-12s %10s %10s %10s %10s %8s\n" "timing" "messages"
    "tuples" "IO" "mean lag" "max lag";
  let spec = spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  List.iter
    (fun (label, mode) ->
      let r =
        Core.Engine.run ~schedule:Core.Scheduler.Best_case
          ~creator:
            (Core.Timing.creator mode (Core.Registry.creator_exn "eca"))
          ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
      in
      let m = r.Core.Engine.metrics in
      let lag = Core.Staleness.of_trace r.Core.Engine.trace "V" in
      Printf.printf "%-12s %10d %10d %10d %10.2f %8d\n" label
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
        lag.Core.Staleness.mean_lag lag.Core.Staleness.max_lag)
    [
      ("immediate", Core.Timing.Immediate);
      ("periodic-5", Core.Timing.Periodic 5);
      ("periodic-10", Core.Timing.Periodic 10);
      ("deferred", Core.Timing.Deferred);
    ]

let ablation_scan_sharing () =
  header "Ablation: multiple-term optimization (paper's conjecture)";
  (* Sharing only helps queries whose terms scan the same relation more
     than once. ECA's compensating terms carry literals and are answered
     by index probes, so single-SPJ ECA queries share almost nothing — a
     finding in itself. Multi-part (union) views DO repeat scans: their
     recompute and their per-update deltas read shared relations once per
     part. *)
  let spec = spec_for ~c:100 ~k:10 () in
  let { W.Scenarios.db; view = chain; updates } = W.Scenarios.example6 spec in
  let wide =
    R.View.natural_join ~name:"V#1"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  let vd = R.Viewdef.union ~name:"V" (R.Viewdef.simple chain) (R.Viewdef.simple wide) in
  Printf.printf "%-26s %14s %14s %8s\n" "workload" "independent IO"
    "shared-scan IO" "saved";
  List.iter
    (fun (label, algorithm, rv_period, schedule, views) ->
      let io share_scans =
        let catalog =
          Storage.Catalog.make ~mode:Storage.Catalog.Indexed_memory
            ~indexes:Storage.Catalog.example6_indexes ~share_scans ()
        in
        let r =
          Core.Engine.run ~schedule ?rv_period
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:[ source_site ~catalog db ] ~views ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.source_io
      in
      let independent = io false and shared = io true in
      Printf.printf "%-26s %14d %14d %7.0f%%\n" label independent shared
        (100.0
        *. float_of_int (independent - shared)
        /. float_of_int (max 1 independent)))
    [
      ("simple view / ECA worst", "eca", None, Core.Scheduler.Worst_case,
       [ R.Viewdef.simple chain ]);
      ("union view / ECA worst", "eca", None, Core.Scheduler.Worst_case, [ vd ]);
      ("union view / RV once", "rv", Some 10, Core.Scheduler.Best_case, [ vd ]);
    ]

let ablation_skew () =
  header "Ablation: join-attribute skew (Zipf; ECA vs one-shot RV, k=30)";
  Printf.printf "%6s %10s %12s %12s %12s\n" "skew" "J(r2,X)" "ECA tuples"
    "RV tuples" "ECA/RV";
  List.iter
    (fun skew ->
      let spec =
        W.Spec.make ~c:100 ~j:4 ~k_updates:30 ~seed:42 ~skew ()
      in
      let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
      let tuples ~rv_period algorithm schedule =
        let r =
          Core.Engine.run ~schedule ~rv_period
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ()
        in
        r.Core.Engine.metrics.Core.Metrics.answer_tuples
      in
      let eca = tuples ~rv_period:1 "eca" Core.Scheduler.Worst_case in
      let rv = tuples ~rv_period:30 "rv" Core.Scheduler.Best_case in
      Printf.printf "%6.1f %10.2f %12d %12d %12.2f\n" skew
        (Storage.Stats.join_factor db "r2" "X")
        eca rv
        (float_of_int eca /. float_of_int (max 1 rv)))
    [ 0.0; 0.5; 1.0; 1.5 ]

let ablation_reliability () =
  header "Ablation: reliable delivery over faulty channels (ECA, k=20)";
  (* The fault-profile matrix, each crossed with {raw channels, reliable
     sublayer}. "logical" is the paper's M (queries + answers); "wire" is
     every physical transmission including retransmits, duplicates and
     acks — the reliability overhead is wire/baseline on the clean run. *)
  let spec = spec_for ~c:50 ~k:20 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (* The profile × {raw, reliable} matrix fans out over the pool — every
     cell is an independent seeded run — and is then recorded/printed
     sequentially in matrix order, as before. *)
  let exec_cell (name, fault, reliable) =
    let t0 = Unix.gettimeofday () in
    let result =
      Core.Engine.run
        ~schedule:(Core.Scheduler.Random 11)
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:
          [ Core.Engine.site ~fault ~fault_seed:23 ~reliable ~name:"source" db ]
        ~views:(defs [ view ]) ~updates ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let m = result.Core.Engine.metrics in
    let ok = R.Bag.equal truth (List.assoc "V" result.Core.Engine.final_mvs) in
    (name, reliable, wall_s, m, ok)
  in
  let matrix =
    List.concat_map
      (fun (name, fault) ->
        List.map (fun reliable -> (name, fault, reliable)) [ false; true ])
      W.Scenarios.fault_profiles
  in
  let cells = Parallel.Pool.map pool exec_cell (Array.of_list matrix) in
  Printf.printf "%-12s %-9s %8s %8s %10s %6s %6s %6s %6s %9s %8s\n" "profile"
    "channel" "logical" "wire" "wire bytes" "retx" "dups" "acks" "ticks"
    "overhead" "correct";
  let baseline = ref 0 in
  Array.iter
    (fun (name, reliable, wall_s, m, ok) ->
      let d = m.Core.Metrics.delivery in
      let label =
        Printf.sprintf "eca[%s/%s]" name
          (if reliable then "reliable" else "raw")
      in
      record ~delivery:d ~algorithm:label ~wall_s
        {
          m_messages = Core.Metrics.messages m;
          m_tuples = m.Core.Metrics.answer_tuples;
          m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
          m_io = m.Core.Metrics.source_io;
        };
      if name = "clean" && not reliable then
        baseline := d.Core.Metrics.wire_bytes;
      Printf.printf "%-12s %-9s %8d %8d %10d %6d %6d %6d %6d %8.2fx %8s\n"
        name
        (if reliable then "reliable" else "raw")
        (Core.Metrics.messages m)
        d.Core.Metrics.wire_messages d.Core.Metrics.wire_bytes
        d.Core.Metrics.retransmits d.Core.Metrics.dups_dropped
        d.Core.Metrics.acks d.Core.Metrics.ticks
        (float_of_int d.Core.Metrics.wire_bytes
        /. float_of_int (max 1 !baseline))
        (if ok then "yes" else "NO"))
    cells

let ablation_observe () =
  header "Ablation: observability layer (ECA, reliable chaos, k=20)";
  let spec = spec_for ~c:50 ~k:20 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let run ~observe () =
    let t0 = Unix.gettimeofday () in
    let r =
      Core.Engine.run
        ~schedule:(Core.Scheduler.Random 11)
        ?observe:(collector observe)
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:
          [
            Core.Engine.site ~fault:W.Scenarios.chaos_profile ~fault_seed:23
              ~reliable:true ~name:"source" db;
          ]
        ~views:(defs [ view ]) ~updates ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_off, off = run ~observe:false () in
  let t_on, on = run ~observe:true () in
  (* Spans off must cost nothing observable: same seeds, same schedule,
     and — with the summary erased — the exact same exported bytes. *)
  let scrubbed =
    {
      on with
      Core.Engine.metrics =
        { on.Core.Engine.metrics with Core.Metrics.observe = None };
    }
  in
  let identical =
    String.equal (Core.Json_export.result off) (Core.Json_export.result scrubbed)
  in
  (* Overhead as best-of-3 per path (the first pair above warmed the plan
     caches), so one descheduled run does not dominate the ratio. *)
  let best t0 f =
    Float.min t0 (Float.min (fst (f ())) (fst (f ())))
  in
  let t_off = best t_off (run ~observe:false) in
  let t_on = best t_on (run ~observe:true) in
  let overhead = t_on /. Float.max 1e-9 t_off in
  let measured (r : Core.Engine.result) =
    let m = r.Core.Engine.metrics in
    {
      m_messages = Core.Metrics.messages m;
      m_tuples = m.Core.Metrics.answer_tuples;
      m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
      m_io = m.Core.Metrics.source_io;
    }
  in
  record ~algorithm:"eca[chaos/reliable/spans-off]" ~wall_s:t_off (measured off);
  record ~algorithm:"eca[chaos/reliable/spans-on]" ~wall_s:t_on (measured on);
  let o =
    match on.Core.Engine.metrics.Core.Metrics.observe with
    | Some o -> o
    | None -> failwith "observed run produced no observe summary"
  in
  Printf.printf "spans-off output byte-identical to the unobserved run: %s\n"
    (if identical then "yes" else "NO");
  Printf.printf
    "spans: %d (forced %d, dropped %d)  gauges: %d  compensations: %d  \
     collect installs: %d (depth max %d)\n"
    o.Core.Metrics.spans o.Core.Metrics.span_forced o.Core.Metrics.span_dropped
    o.Core.Metrics.gauges o.Core.Metrics.compensations
    o.Core.Metrics.collect_installs o.Core.Metrics.collect_depth_max;
  Printf.printf "UQS residency: %d samples, mean %.2f engine steps\n"
    o.Core.Metrics.uqs_residency.Core.Metrics.samples
    (Core.Metrics.hist_mean o.Core.Metrics.uqs_residency);
  List.iter
    (fun (v, s) ->
      Printf.printf
        "staleness[%s]: final %d, max %d, quiesce max %d (%d samples)\n" v
        s.Core.Metrics.stale_final s.Core.Metrics.stale_max
        s.Core.Metrics.stale_quiesce_max s.Core.Metrics.stale_samples)
    o.Core.Metrics.staleness;
  (* check_determinism.sh strips this line: wall-clock ratios are noise
     between any two runs. *)
  Printf.printf "observe overhead (spans on / spans off): %.2fx\n" overhead;
  if not identical then
    failwith "observability layer changed the spans-off output";
  let staleness_json =
    String.concat ", "
      (List.map
         (fun (v, s) ->
           Printf.sprintf
             "{ \"view\": %s, \"final\": %d, \"max\": %d, \
              \"quiesce_max\": %d, \"samples\": %d }"
             (Core.Json_export.str v) s.Core.Metrics.stale_final
             s.Core.Metrics.stale_max
             s.Core.Metrics.stale_quiesce_max s.Core.Metrics.stale_samples)
         o.Core.Metrics.staleness)
  in
  gate ~name:"observe.overhead_x" ~op:"<=" (Absolute 2.0) overhead;
  set_section "observe"
    (Printf.sprintf
       "{\n\
       \    \"byte_identical_off\": %b,\n\
       \    \"overhead_x\": %.3f,\n\
       \    \"spans\": %d,\n\
       \    \"span_forced\": %d,\n\
       \    \"span_dropped\": %d,\n\
       \    \"gauges\": %d,\n\
       \    \"compensations\": %d,\n\
       \    \"collect_installs\": %d,\n\
       \    \"collect_depth_max\": %d,\n\
       \    \"uqs_residency_samples\": %d,\n\
       \    \"uqs_residency_mean\": %.3f,\n\
       \    \"staleness\": [ %s ]\n\
       \  }"
       identical overhead o.Core.Metrics.spans o.Core.Metrics.span_forced
       o.Core.Metrics.span_dropped o.Core.Metrics.gauges
       o.Core.Metrics.compensations o.Core.Metrics.collect_installs
       o.Core.Metrics.collect_depth_max
       o.Core.Metrics.uqs_residency.Core.Metrics.samples
       (Core.Metrics.hist_mean o.Core.Metrics.uqs_residency)
       staleness_json)

(* ------------------------------------------------------------------ *)
(* Sustained throughput: compiled delta programs vs interpreted        *)
(* ------------------------------------------------------------------ *)

(* The schema-v6 headline. Two parts:

   1. Sustained apply: the full k-update stream driven straight through
      [Sc.on_batch] in batches of 32 — replica apply, delta evaluation
      and install accumulation, none of the transport/trace/consistency
      scaffolding that costs the same on both paths — once with the
      staged delta programs (the default) and once interpreted
      ([Delta_program.set_compiled false]). Updates/sec of the compiled
      leg and the speedup over the interpreted one are gates; both legs
      must agree on the final materialized view, replica and install
      count.

   2. End-to-end checks at a smaller k through the real engine: the
      compiled and interpreted runs must serialize to the same bytes,
      and one observed run per algorithm yields apply-latency (SC edge
      spans) and query-residency (ECA UQS) p50/p99 via
      [Metrics.hist_quantile] — engine steps, so deterministic. *)
let bench_throughput () =
  header "Throughput: sustained apply, compiled vs interpreted (batch=32)";
  let batch_size = 32 in
  (* --- Part 1: direct apply path, bounded churn, k=4992 --- *)
  (* A warehouse-refresh churn stream: blocks of 32 same-relation inserts
     cycling r1, r2, r3, with every second visit to a relation deleting
     the block its previous visit inserted. Same-class blocks are what
     the engine's edge coalescing produces under bulk loads, and the
     delete-what-you-inserted discipline keeps the replica (and the join
     sizes both legs pay for) bounded, so the stream's throughput is
     sustained rather than degrading as the join fans out. *)
  let spec = W.Spec.make ~c:100 ~j:4 ~k_updates:1 ~seed:7 () in
  let { W.Scenarios.db; view; _ } = W.Scenarios.example6 spec in
  let st = Random.State.make [| 1007 |] in
  let dom = W.Spec.join_domain spec in
  let vr = spec.W.Spec.value_range in
  let rand n = if n <= 0 then 0 else Random.State.int st n in
  let fresh = function
    | "r1" -> R.Tuple.ints [ rand vr; rand dom ]
    | "r2" -> R.Tuple.ints [ rand dom; rand dom ]
    | "r3" -> R.Tuple.ints [ rand dom; rand vr ]
    | _ -> assert false
  in
  let rels = [| "r1"; "r2"; "r3" |] in
  let n_blocks = 156 in
  let pending = Array.init 3 (fun _ -> Queue.create ()) in
  let batches =
    List.init n_blocks (fun b ->
        let ri = b mod 3 in
        let rel = rels.(ri) in
        if (b / 3) mod 2 = 1 then
          List.map (R.Update.delete rel) (Queue.pop pending.(ri))
        else begin
          let ts = List.init batch_size (fun _ -> fresh rel) in
          Queue.push ts pending.(ri);
          List.map (R.Update.insert rel) ts
        end)
  in
  let k_updates = n_blocks * batch_size in
  let cfg = Core.Algorithm.Config.of_view_db view db in
  let drive ~compiled () =
    R.Delta_program.set_compiled compiled;
    Fun.protect
      ~finally:(fun () -> R.Delta_program.set_compiled true)
      (fun () ->
        let t = Core.Sc.create cfg in
        let installs = ref 0 in
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun b ->
            let o = Core.Sc.on_batch t b in
            installs := !installs + List.length o.Core.Algorithm.installs)
          batches;
        (Unix.gettimeofday () -. t0, t, !installs))
  in
  let t_int0, sc_int, n_int = drive ~compiled:false () in
  let t_cmp0, sc_cmp, n_cmp = drive ~compiled:true () in
  (* Best-of-3 per leg (the first pair warmed the plan and staging
     caches), as in the observe ablation. *)
  let best t0 f =
    let m (t, _, _) = t in
    Float.min t0 (Float.min (m (f ())) (m (f ())))
  in
  let t_int = best t_int0 (drive ~compiled:false) in
  let t_cmp = best t_cmp0 (drive ~compiled:true) in
  let legs_agree =
    R.Bag.equal (Core.Sc.mv sc_int) (Core.Sc.mv sc_cmp)
    && R.Db.equal (Core.Sc.replica sc_int) (Core.Sc.replica sc_cmp)
    && n_int = n_cmp
  in
  let per_s t = float_of_int k_updates /. Float.max 1e-9 t in
  let speedup = t_int /. Float.max 1e-9 t_cmp in
  (* --- Part 2: end-to-end byte identity and latency percentiles --- *)
  let k_e2e = 200 in
  let e2e_spec = W.Spec.make ~c:50 ~j:4 ~k_updates:k_e2e ~seed:7 () in
  let e2e = W.Scenarios.example6 e2e_spec in
  let run ~algorithm ~compiled ?(observe = false) () =
    R.Delta_program.set_compiled compiled;
    Fun.protect
      ~finally:(fun () -> R.Delta_program.set_compiled true)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let r =
          Core.Engine.run ~schedule:Core.Scheduler.Best_case ~batch_size
            ?observe:(collector observe)
            ~creator:(Core.Registry.creator_exn algorithm)
            ~sites:[ source_site e2e.W.Scenarios.db ]
            ~views:(defs [ e2e.W.Scenarios.view ])
            ~updates:e2e.W.Scenarios.updates ()
        in
        (Unix.gettimeofday () -. t0, r))
  in
  let t_rint, r_int = run ~algorithm:"sc" ~compiled:false () in
  let t_rcmp, r_cmp = run ~algorithm:"sc" ~compiled:true () in
  (* The staged programs must not change one byte of the run: same trace,
     metrics, consistency verdicts and final states as the interpreter. *)
  let identical =
    String.equal (Core.Json_export.result r_int) (Core.Json_export.result r_cmp)
  in
  let measured (r : Core.Engine.result) =
    let m = r.Core.Engine.metrics in
    {
      m_messages = Core.Metrics.messages m;
      m_tuples = m.Core.Metrics.answer_tuples;
      m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
      m_io = m.Core.Metrics.source_io;
    }
  in
  record ~algorithm:"sc[batch=32/interpreted]" ~wall_s:t_rint (measured r_int);
  record ~algorithm:"sc[batch=32/compiled]" ~wall_s:t_rcmp (measured r_cmp);
  (* Apply latency: note flight+handling per edge, in engine steps
     (deterministic). SC sends no queries, so its UQS histogram is empty;
     query residency comes from an observed ECA run instead. *)
  let summary_of label (r : Core.Engine.result) =
    match r.Core.Engine.metrics.Core.Metrics.observe with
    | Some o -> o
    | None -> failwith ("observed " ^ label ^ " run produced no summary")
  in
  let sc_obs =
    summary_of "sc" (snd (run ~algorithm:"sc" ~compiled:true ~observe:true ()))
  in
  let eca_obs =
    summary_of "eca" (snd (run ~algorithm:"eca" ~compiled:true ~observe:true ()))
  in
  let apply_hist =
    match sc_obs.Core.Metrics.edge_latency with
    | (_, h) :: _ -> h
    | [] -> failwith "observed sc run produced no edge-latency histogram"
  in
  let q h p = Core.Metrics.hist_quantile h p in
  let apply_p50 = q apply_hist 0.5 and apply_p99 = q apply_hist 0.99 in
  let uqs = eca_obs.Core.Metrics.uqs_residency in
  let uqs_p50 = q uqs 0.5 and uqs_p99 = q uqs 0.99 in
  Printf.printf "compiled output byte-identical to the interpreted run: %s\n"
    (if identical then "yes" else "NO");
  Printf.printf "compiled and interpreted legs agree (mv/replica/installs): %s\n"
    (if legs_agree then "yes" else "NO");
  Printf.printf
    "apply latency (sc, engine steps): p50 %d, p99 %d (%d samples)\n" apply_p50
    apply_p99 apply_hist.Core.Metrics.samples;
  Printf.printf "query residency (eca, engine steps): p50 %d, p99 %d\n" uqs_p50
    uqs_p99;
  (* check_determinism.sh strips "throughput ..." lines: wall-clock rates
     are noise between any two runs. *)
  Printf.printf "throughput sc compiled:    %10.0f updates/s\n" (per_s t_cmp);
  Printf.printf "throughput sc interpreted: %10.0f updates/s\n" (per_s t_int);
  Printf.printf "throughput compiled speedup: %.2fx\n" speedup;
  if not identical then
    failwith "compiled delta programs changed the run output";
  if not legs_agree then
    failwith "compiled delta programs changed the applied state";
  let seed_field =
    match scan_json_float ~field:"seed_updates_per_s" "bench/baseline.json" with
    | Some s -> Printf.sprintf "\n    \"seed_updates_per_s\": %.1f," s
    | None -> ""
  in
  gate ~name:"throughput.compiled_speedup_x" ~op:">=" (Absolute 1.0) speedup;
  gate ~name:"throughput.updates_per_s" ~op:">=" (Baseline_x 0.5) (per_s t_cmp);
  set_section "throughput"
    (Printf.sprintf
       "{\n\
       \    \"algorithm\": \"sc\",\n\
       \    \"batch_size\": %d,\n\
       \    \"updates\": %d,\n\
       \    \"updates_per_s\": %.1f,\n\
       \    \"interpreted_updates_per_s\": %.1f,\n\
       \    \"compiled_speedup_x\": %.3f,%s\n\
       \    \"apply_latency_p50_steps\": %d,\n\
       \    \"apply_latency_p99_steps\": %d,\n\
       \    \"uqs_p50_steps\": %d,\n\
       \    \"uqs_p99_steps\": %d,\n\
       \    \"byte_identical_interpreted\": %b\n\
       \  }"
       batch_size k_updates (per_s t_cmp) (per_s t_int) speedup seed_field
       apply_p50 apply_p99 uqs_p50 uqs_p99 identical)

let ablation_compound_views () =
  header "Extension: union/difference views (Section 7; k=30, worst case)";
  let spec = spec_for ~c:100 ~k:30 () in
  let { W.Scenarios.db; view = chain; updates } = W.Scenarios.example6 spec in
  (* wide = chain ∪ pairs-without-r3; narrow = chain \ high-W chain *)
  let pairs =
    R.View.natural_join ~name:"V#1"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r2" "Y" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2 ]
  in
  let chain_wide =
    R.View.natural_join ~name:"V#1w"
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  ignore pairs;
  let high =
    R.View.natural_join ~name:"V#2"
      ~extra_cond:(R.Parser.parse_predicate "r1.W > 800")
      ~proj:[ R.Attr.qualified "r1" "W"; R.Attr.qualified "r3" "Z" ]
      [ W.Generator.chain_r1; W.Generator.chain_r2; W.Generator.chain_r3 ]
  in
  let vd_union =
    R.Viewdef.union ~name:"V" (R.Viewdef.simple chain)
      (R.Viewdef.simple chain_wide)
  in
  let vd_diff =
    R.Viewdef.diff ~name:"V" (R.Viewdef.simple chain) (R.Viewdef.simple high)
  in
  Printf.printf "%-22s %10s %10s %10s %s\n" "view / algorithm" "messages"
    "tuples" "IO" "verdict";
  List.iter
    (fun (label, vd) ->
      List.iter
        (fun (algorithm, rv_period) ->
          let r =
            Core.Engine.run ~schedule:Core.Scheduler.Worst_case
              ?rv_period
              ~creator:(Core.Registry.creator_exn algorithm)
              ~sites:[ source_site db ] ~views:[ vd ] ~updates ()
          in
          let m = r.Core.Engine.metrics in
          Printf.printf "%-22s %10d %10d %10d %s\n"
            (label ^ "/" ^ algorithm)
            (Core.Metrics.messages m)
            m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
            (Core.Consistency.strongest_label
               (List.assoc "V" r.Core.Engine.reports)))
        [ ("eca", None); ("lca", None); ("rv", Some 30) ])
    [ ("union", vd_union); ("difference", vd_diff) ]

(* ------------------------------------------------------------------ *)
(* Federation                                                          *)
(* ------------------------------------------------------------------ *)

(* Three independent copies of the Example-6 scenario, relations renamed
   apart so each source owns a disjoint schema, update streams interleaved
   round-robin — "ECA applied to each view separately" (Section 7) over
   the site-graph engine, crossed with scheduling policies and with
   chaos-profile edges raw/reliable. *)

let fed_prefix_schema p (s : R.Schema.t) =
  R.Schema.make ~key:s.R.Schema.key (p ^ s.R.Schema.name) s.R.Schema.columns

let fed_prefix_db p db =
  List.fold_left
    (fun acc rel ->
      R.Db.add_relation ~contents:(R.Db.contents db rel) acc
        (fed_prefix_schema p (R.Db.schema db rel)))
    R.Db.empty (R.Db.relation_names db)

let fed_view p =
  R.View.natural_join
    ~name:(p ^ "V")
    ~extra_cond:
      (R.Predicate.Cmp
         ( R.Predicate.Gt,
           R.Predicate.Col (R.Attr.qualified (p ^ "r1") "W"),
           R.Predicate.Col (R.Attr.qualified (p ^ "r3") "Z") ))
    ~proj:[ R.Attr.qualified (p ^ "r1") "W"; R.Attr.qualified (p ^ "r3") "Z" ]
    (List.map (fed_prefix_schema p) W.Generator.chain_schemas)

let rec fed_interleave lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | ls -> List.map List.hd ls @ fed_interleave (List.map List.tl ls)

let fed_workload () =
  let mk i p =
    let spec = W.Spec.make ~c:30 ~j:3 ~k_updates:10 ~insert_ratio:0.5
        ~seed:(40 + i) ()
    in
    let { W.Scenarios.db; view = _; updates } = W.Scenarios.example6 spec in
    ( fed_prefix_db p db,
      fed_view p,
      List.map
        (fun (u : R.Update.t) -> { u with R.Update.rel = p ^ u.R.Update.rel })
        updates )
  in
  let parts = List.mapi mk [ "a_"; "b_"; "c_" ] in
  ( List.mapi (fun i (db, _, _) -> (Printf.sprintf "s%d" i, None, db)) parts,
    List.map (fun (_, v, _) -> v) parts,
    fed_interleave (List.map (fun (_, _, us) -> us) parts) )

let bench_federation () =
  header "Federation: ECA per view over 3 sources (Section 7; k=3x10)";
  let sources, views, updates = fed_workload () in
  let exec_cell (label, schedule, fault, reliable) =
    let t0 = Unix.gettimeofday () in
    let result =
      Core.Engine.run ~schedule
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:(fed_sites ?fault ~fault_seed:17 ~reliable sources)
        ~views:(defs views) ~updates ()
    in
    (label, Unix.gettimeofday () -. t0, result)
  in
  let matrix =
    [
      ("eca[fed/drain]", Core.Scheduler.Best_case, None, false);
      ("eca[fed/updates-first]", Core.Scheduler.Worst_case, None, false);
      ("eca[fed/rr]", Core.Scheduler.Round_robin, None, false);
      ("eca[fed/rand=11]", Core.Scheduler.Random 11, None, false);
      ( "eca[fed/chaos/raw]",
        Core.Scheduler.Random 11,
        Some W.Scenarios.chaos_profile,
        false );
      ( "eca[fed/chaos/reliable]",
        Core.Scheduler.Random 11,
        Some W.Scenarios.chaos_profile,
        true );
    ]
  in
  (* Cells are independent runs over value-copied inputs: fan them out,
     record in matrix order (same discipline as the reliability matrix). *)
  let cells = Parallel.Pool.map pool exec_cell (Array.of_list matrix) in
  Printf.printf "%-24s %8s %8s %8s %10s %6s %9s %s\n" "cell" "messages"
    "tuples" "IO" "wire msgs" "retx" "strong/3" "per-edge wire msgs";
  Array.iter
    (fun (label, wall_s, (result : Core.Engine.result)) ->
      let m = result.Core.Engine.metrics in
      let d = m.Core.Metrics.delivery in
      record ~delivery:d ~site_delivery:m.Core.Metrics.site_delivery
        ~algorithm:label ~wall_s
        {
          m_messages = Core.Metrics.messages m;
          m_tuples = m.Core.Metrics.answer_tuples;
          m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
          m_io = m.Core.Metrics.source_io;
        };
      let strong =
        List.length
          (List.filter
             (fun (_, r) -> r.Core.Consistency.strongly_consistent)
             result.Core.Engine.reports)
      in
      Printf.printf "%-24s %8d %8d %8d %10d %6d %8d/3 %s\n" label
        (Core.Metrics.messages m)
        m.Core.Metrics.answer_tuples m.Core.Metrics.source_io
        d.Core.Metrics.wire_messages d.Core.Metrics.retransmits strong
        (String.concat " "
           (List.map
              (fun (site, sd) ->
                Printf.sprintf "%s:%d" site sd.Core.Metrics.wire_messages)
              m.Core.Metrics.site_delivery)))
    cells


(* ------------------------------------------------------------------ *)
(* Multi-view catalog: shared-delta (MQO) maintenance (schema v7)      *)
(* ------------------------------------------------------------------ *)

(* The multi-view warehouse of DESIGN.md Â§4h: one warehouse hosting N
   registered views over the same 3 base relations, catalog sizes
   1/4/16/64, each cell run twice -- shared-delta maintenance off and
   on. Views cycle through two SPJ shapes, so every warehouse event
   raises ~N/2 structurally equal delta queries per shape; with sharing
   each equal group ships once. The section asserts (not merely
   reports) the MQO contract: sharing must change no view's final
   state, must strictly reduce shipped queries for N >= 4, and the
   evaluated shared deltas must number fewer than the unshared subplan
   total. A second leg runs the auto-rung ladder (ECAK / ECAL / ECA in
   one warehouse) under observation and gates the paper's
   strong-consistency signature: staleness 0 at every quiescence. *)
let bench_catalog () =
  header "Catalog: N views over 3 base relations, shared deltas";
  let s1 = R.Schema.of_names "r1" [ "W"; "X" ] in
  let s2 = R.Schema.of_names "r2" [ "X"; "Y" ] in
  let s3 = R.Schema.of_names "r3" [ "Y"; "Z" ] in
  let bag rows = R.Bag.of_list (List.map R.Tuple.ints rows) in
  let db =
    R.Db.of_list
      [
        (s1, bag [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 2 ] ]);
        (s2, bag [ [ 2; 5 ]; [ 4; 6 ] ]);
        (s3, bag [ [ 5; 7 ]; [ 6; 8 ] ]);
      ]
  in
  let updates =
    [
      R.Update.insert "r2" (R.Tuple.ints [ 4; 5 ]);
      R.Update.insert "r1" (R.Tuple.ints [ 7; 4 ]);
      R.Update.delete "r2" (R.Tuple.ints [ 2; 5 ]);
      R.Update.insert "r3" (R.Tuple.ints [ 5; 9 ]);
      R.Update.delete "r1" (R.Tuple.ints [ 3; 4 ]);
      R.Update.insert "r2" (R.Tuple.ints [ 0; 5 ]);
    ]
  in
  let shape i name =
    if i mod 2 = 0 then
      R.View.natural_join ~name ~proj:[ R.Attr.unqualified "W" ] [ s1; s2 ]
    else
      R.View.natural_join ~name
        ~proj:[ R.Attr.unqualified "W"; R.Attr.unqualified "Z" ]
        [ s1; s2; s3 ]
  in
  let entries n =
    List.init n (fun i ->
        Core.Catalog.entry ~algo:"eca"
          (R.Viewdef.simple (shape i (Printf.sprintf "V%02d" i))))
  in
  let run_cell ~share n =
    let t0 = Unix.gettimeofday () in
    let result =
      let entries = entries n in
      Core.Engine.run ~schedule:Core.Scheduler.Worst_case ~share_deltas:share
        ~creator:(Core.Catalog.creator entries)
        ~sites:[ source_site db ]
        ~views:(Core.Catalog.views entries) ~updates ()
    in
    (Unix.gettimeofday () -. t0, result)
  in
  let record_leg ~label ~wall_s (r : Core.Engine.result) =
    let m = r.Core.Engine.metrics in
    record ~algorithm:label ~wall_s
      {
        m_messages = Core.Metrics.messages m;
        m_tuples = m.Core.Metrics.answer_tuples;
        m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
        m_io = m.Core.Metrics.source_io;
      }
  in
  Printf.printf "%-6s %13s %12s %7s %10s %7s %10s\n" "views" "queries(off)"
    "queries(on)" "saved" "evaluated" "fanout" "identical";
  let cells =
    List.map
      (fun n ->
        let wall_off, off = run_cell ~share:false n in
        let wall_on, on_ = run_cell ~share:true n in
        record_leg ~label:(Printf.sprintf "catalog[n=%d/unshared]" n)
          ~wall_s:wall_off off;
        record_leg ~label:(Printf.sprintf "catalog[n=%d/shared]" n)
          ~wall_s:wall_on on_;
        (match off.Core.Engine.metrics.Core.Metrics.shared with
        | Some _ -> failwith "catalog: unshared run reported MQO counters"
        | None -> ());
        let sh =
          match on_.Core.Engine.metrics.Core.Metrics.shared with
          | Some sh -> sh
          | None -> failwith "catalog: shared run carries no MQO counters"
        in
        let identical =
          List.for_all
            (fun (name, mv) ->
              R.Bag.equal mv (List.assoc name on_.Core.Engine.final_mvs))
            off.Core.Engine.final_mvs
        in
        let q_off = off.Core.Engine.metrics.Core.Metrics.queries_sent in
        let q_on = on_.Core.Engine.metrics.Core.Metrics.queries_sent in
        let saved = q_off - q_on in
        Printf.printf "%-6d %13d %12d %7d %10d %7d %10s\n" n q_off q_on saved
          sh.Core.Metrics.shared_evaluated sh.Core.Metrics.shared_fanout
          (if identical then "yes" else "NO");
        if not identical then
          failwith "catalog: sharing changed a view's final state";
        if saved <> sh.Core.Metrics.shared_hits then
          failwith "catalog: saved queries disagree with the hit counter";
        if n >= 4 && saved <= 0 then
          failwith "catalog: sharing saved nothing on an N-view catalog";
        if sh.Core.Metrics.shared_evaluated >= max 1 q_off then
          failwith "catalog: shared deltas not fewer than unshared subplans";
        (n, q_off, q_on, saved, sh))
      [ 1; 4; 16; 64 ]
  in
  (* The auto-rung ladder in one warehouse, observed: every rung of the
     ECA family must report staleness 0 at each quiescence probe. *)
  let k1 = R.Schema.of_names ~key:[ "W" ] "r1" [ "W"; "X" ] in
  let k2 = R.Schema.of_names ~key:[ "Y" ] "r2" [ "X"; "Y" ] in
  let kdb =
    R.Db.of_list [ (k1, bag [ [ 1; 2 ]; [ 3; 4 ] ]); (k2, bag [ [ 2; 5 ]; [ 4; 6 ] ]) ]
  in
  let kupdates =
    [
      R.Update.insert "r1" (R.Tuple.ints [ 7; 4 ]);
      R.Update.insert "r2" (R.Tuple.ints [ 0; 9 ]);
      R.Update.delete "r2" (R.Tuple.ints [ 4; 6 ]);
    ]
  in
  let uq = R.Attr.unqualified in
  let rung_entries =
    List.map
      (fun (name, proj) ->
        Core.Catalog.entry
          (R.Viewdef.simple (R.View.natural_join ~name ~proj [ k1; k2 ])))
      [
        ("KEYS", [ uq "W"; uq "Y" ]);
        ("HALF", [ uq "W" ]);
        ("BARE", [ R.Attr.qualified "r1" "X" ]);
      ]
  in
  (* BARE projects r1.X only: no key is covered, but every auxiliary
     projection is a proper reduction — the ECA-SM rung slots in between
     eca-key and eca-local on the ladder. *)
  let expected_rungs =
    [ ("KEYS", "eca-key"); ("HALF", "eca-local"); ("BARE", "eca-sm") ]
  in
  if Core.Catalog.algorithms rung_entries <> expected_rungs then
    failwith "catalog: auto_rung picked unexpected algorithm rungs";
  let t0 = Unix.gettimeofday () in
  let rung_run =
    Core.Engine.run ~schedule:Core.Scheduler.Worst_case
      ~observe:(Observe.Collector.create ()) ~share_deltas:true
      ~creator:(Core.Catalog.creator rung_entries)
      ~sites:[ source_site kdb ]
      ~views:(Core.Catalog.views rung_entries)
      ~windows:(Core.Catalog.windows rung_entries) ~updates:kupdates ()
  in
  record_leg ~label:"catalog[rung-ladder/observed]"
    ~wall_s:(Unix.gettimeofday () -. t0)
    rung_run;
  let staleness =
    match rung_run.Core.Engine.metrics.Core.Metrics.observe with
    | Some o -> o.Core.Metrics.staleness
    | None -> failwith "catalog: observed rung run carries no gauges"
  in
  let rungs_json =
    String.concat ", "
      (List.map
         (fun (name, algo) ->
           let g = List.assoc name staleness in
           Printf.printf "rung %s (%s): quiesce staleness max %d\n" name algo
             g.Core.Metrics.stale_quiesce_max;
           if g.Core.Metrics.stale_quiesce_max <> 0 then
             failwith
               (Printf.sprintf "catalog: %s rung %s stale at quiescence" algo
                  name);
           Printf.sprintf
             "{ \"view\": %s, \"algorithm\": %s, \"stale_quiesce_max\": %d }"
             (Core.Json_export.str name) (Core.Json_export.str algo)
             g.Core.Metrics.stale_quiesce_max)
         expected_rungs)
  in
  let cells_json =
    String.concat ",\n      "
      (List.map
         (fun (n, q_off, q_on, saved, sh) ->
           Printf.sprintf
             "{ \"views\": %d, \"total_subplans\": %d, \"queries_on\": %d, \
              \"shared_saved\": %d, \"shared_evaluated\": %d, \
              \"shared_hits\": %d, \"shared_fanout\": %d }"
             n q_off q_on saved sh.Core.Metrics.shared_evaluated
             sh.Core.Metrics.shared_hits sh.Core.Metrics.shared_fanout)
         cells)
  in
  set_section "catalog"
    (Printf.sprintf
       "{\n\
       \    \"sources\": 3,\n\
       \    \"shared_off_identical\": true,\n\
       \    \"cells\": [\n\
       \      %s\n\
       \    ],\n\
       \    \"rungs\": [ %s ]\n\
       \  }"
       cells_json rungs_json)

(* ------------------------------------------------------------------ *)
(* Scale-out: N sources on one event loop (schema v8)                  *)
(* ------------------------------------------------------------------ *)

(* The N-source matrix over the generated scaling workload
   (Workload.Scenarios.scaled): N in {3, 10, 100, 500} crossed with
   {clean, chaos} edges and {raw, reliable} channels, every cell through
   the ready-set event loop with the warehouse sharded over the pool and
   the scale counters on. On top of the matrix:

   - an O(active) wall-clock gate pair: the same 200-update stream fanned
     over 10 and over 100 sources — with per-step cost O(active) the two
     cost about the same, with the historical O(N)-per-step readiness
     rebuild the wide cell pays ~10x (the ratio is gated at 5x);
   - a coalescing pair (hot source, same stream, coalescing off/on):
     strictly fewer wire frames, byte-identical view states — asserted
     here;
   - a backpressure trio (flood / bounded / weighted-fair) on a hot
     workload: Bounded_inflight must cap the peak per-edge backlog the
     flood exhibits;
   - one observed cell asserting the ECA-rung signature at scale:
     staleness 0 at every quiescence probe on all 10 views. *)
let bench_scaling () =
  header "Scaling: N sources, O(active) loop, coalescing, backpressure";
  let exec ?schedule ?fault ?reliable ?coalesce ?observe
      ?(updates_per_source = 2) ?(skew = 0.0) ?(insert_ratio = 0.75)
      ?(c = 3) ?(seed = 42) ~n () =
    let w = W.Scenarios.scaled ~c ~updates_per_source ~insert_ratio ~skew ~seed ~n () in
    let t0 = Unix.gettimeofday () in
    let r =
      Core.Engine.run ?schedule ?coalesce ?observe ~shard:pool
        ~track_scale:true
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:(fed_sites ?fault ~fault_seed:5 ?reliable w.W.Scenarios.sources)
        ~views:(defs w.W.Scenarios.views)
        ~updates:w.W.Scenarios.updates ()
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let scale_of (r : Core.Engine.result) =
    match r.Core.Engine.metrics.Core.Metrics.scale with
    | Some s -> s
    | None -> failwith "scaling: run carries no scale counters"
  in
  (* a gate cell is only admissible evidence if it is also correct *)
  let check_exact_or_fail label (r : Core.Engine.result) =
    List.iter
      (fun (view, rep) ->
        if not rep.Core.Consistency.strongly_consistent then
          failwith (label ^ ": " ^ view ^ " lost strong consistency");
        if
          not
            (R.Bag.equal
               (List.assoc view r.Core.Engine.final_source_views)
               (List.assoc view r.Core.Engine.final_mvs))
        then failwith (label ^ ": " ^ view ^ " diverged from its source"))
      r.Core.Engine.reports
  in
  let strong_count (r : Core.Engine.result) =
    List.length
      (List.filter
         (fun (_, rep) -> rep.Core.Consistency.strongly_consistent)
         r.Core.Engine.reports)
  in
  let record_cell ~label ~wall_s (r : Core.Engine.result) =
    let m = r.Core.Engine.metrics in
    record ~delivery:m.Core.Metrics.delivery ~algorithm:label ~wall_s
      {
        m_messages = Core.Metrics.messages m;
        m_tuples = m.Core.Metrics.answer_tuples;
        m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
        m_io = m.Core.Metrics.source_io;
      }
  in
  (* --- the N x profile x channel matrix --- *)
  Printf.printf "%-28s %8s %9s %8s %9s %10s\n" "cell" "messages" "wire msgs"
    "strong" "inflight" "active max";
  let cells =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun (pname, fault) ->
            List.map
              (fun reliable ->
                let label =
                  Printf.sprintf "eca[scale/n=%d/%s/%s]" n pname
                    (if reliable then "reliable" else "raw")
                in
                let wall_s, r = exec ?fault ~reliable ~seed:(100 + n) ~n () in
                record_cell ~label ~wall_s r;
                let s = scale_of r in
                let m = r.Core.Engine.metrics in
                let strong = strong_count r in
                if String.equal pname "clean" && strong <> n then
                  failwith (label ^ ": a clean cell lost strong consistency");
                Printf.printf "%-28s %8d %9d %5d/%d %9d %10d\n" label
                  (Core.Metrics.messages m)
                  m.Core.Metrics.delivery.Core.Metrics.wire_messages strong n
                  s.Core.Metrics.inflight_max s.Core.Metrics.active_max;
                (n, pname, reliable, wall_s, r))
              [ false; true ])
          [ ("clean", None); ("chaos", Some W.Scenarios.chaos_profile) ])
      [ 3; 10; 100; 500 ]
  in
  (* --- O(active) gate pair: same stream length, 10x the fan-out --- *)
  let gate_cell n updates_per_source =
    let wall0, r = exec ~updates_per_source ~seed:9 ~n () in
    (* best-of-3, as in the observe ablation: one descheduled run must
       not decide a wall-clock ratio *)
    let wall =
      List.fold_left
        (fun acc () -> Float.min acc (fst (exec ~updates_per_source ~seed:9 ~n ())))
        wall0 [ (); () ]
    in
    check_exact_or_fail ("scaling gate n=" ^ string_of_int n) r;
    (wall, r)
  in
  let n10_wall, _ = gate_cell 10 20 in
  let n100_wall, _ = gate_cell 100 2 in
  let n500_wall =
    match List.find_opt (fun (n, p, rel, _, _) -> n = 500 && p = "clean" && not rel) cells with
    | Some (_, _, _, w, _) -> w
    | None -> failwith "scaling: 500-source clean cell missing"
  in
  (* --- coalescing: hot source, same stream, off vs on --- *)
  let coalesce_args ~coalesce () =
    exec ~coalesce ~updates_per_source:10 ~skew:3.0 ~insert_ratio:1.0
      ~seed:17 ~n:10 ()
  in
  let off_wall, off = coalesce_args ~coalesce:false () in
  let on_wall, on_ = coalesce_args ~coalesce:true () in
  record_cell ~label:"eca[scale/hot/uncoalesced]" ~wall_s:off_wall off;
  record_cell ~label:"eca[scale/hot/coalesced]" ~wall_s:on_wall on_;
  let identical =
    List.for_all
      (fun (name, mv) ->
        R.Bag.equal mv (List.assoc name on_.Core.Engine.final_mvs))
      off.Core.Engine.final_mvs
  in
  let wire (r : Core.Engine.result) =
    r.Core.Engine.metrics.Core.Metrics.delivery.Core.Metrics.wire_messages
  in
  let coalesce_off_wire = wire off and coalesce_on_wire = wire on_ in
  let coalesced_batches = (scale_of on_).Core.Metrics.coalesced_batches in
  let coalesced_notes = (scale_of on_).Core.Metrics.coalesced_notes in
  Printf.printf
    "coalescing: %d -> %d wire frames (%d notes absorbed into %d batches), \
     states identical: %s\n"
    coalesce_off_wire coalesce_on_wire coalesced_notes coalesced_batches
    (if identical then "yes" else "NO");
  if not identical then
    failwith "scaling: coalescing changed a view's final state";
  if coalesce_on_wire >= coalesce_off_wire then
    failwith "scaling: coalescing did not reduce shipped frames";
  (* --- backpressure and fairness on the hot workload --- *)
  let hot ~schedule () =
    exec ~schedule ~updates_per_source:6 ~skew:3.0 ~seed:7 ~n:6 ()
  in
  let flood_wall, flood = hot ~schedule:Core.Scheduler.Worst_case () in
  let bounded_wall, bounded =
    hot ~schedule:(Core.Scheduler.Bounded_inflight 4) ()
  in
  let wf_wall, wf = hot ~schedule:(Core.Scheduler.Weighted_fair 2) () in
  record_cell ~label:"eca[scale/hot/updates-first]" ~wall_s:flood_wall flood;
  record_cell ~label:"eca[scale/hot/inflight<=4]" ~wall_s:bounded_wall bounded;
  record_cell ~label:"eca[scale/hot/wf=2]" ~wall_s:wf_wall wf;
  let inflight r = (scale_of r).Core.Metrics.inflight_max in
  Printf.printf
    "backpressure: flood peaks at %d in-flight frames, inflight<=4 at %d, \
     wf=2 at %d\n"
    (inflight flood) (inflight bounded) (inflight wf);
  check_exact_or_fail "scaling bounded" bounded;
  check_exact_or_fail "scaling weighted-fair" wf;
  if inflight bounded >= inflight flood then
    failwith "scaling: backpressure did not cap the hot edge's backlog";
  (* --- the ECA-rung staleness signature at scale, observed --- *)
  let _, observed =
    exec ~observe:(Observe.Collector.create ()) ~seed:101 ~n:10 ()
  in
  let stale_quiesce_max =
    stale_quiesce_max ~section:"scaling" observed.Core.Engine.metrics
  in
  Printf.printf "staleness at quiescence across 10 views: max %d\n"
    stale_quiesce_max;
  if stale_quiesce_max <> 0 then
    failwith "scaling: an ECA view was stale at a quiescence probe";
  let cells_json =
    String.concat ",\n      "
      (List.map
         (fun (n, pname, reliable, wall_s, r) ->
           let m = r.Core.Engine.metrics in
           let s = scale_of r in
           Printf.sprintf
             "{ \"n\": %d, \"profile\": %s, \"channel\": \"%s\", \
              \"wall_clock_s\": %.6f, \"messages\": %d, \"wire_messages\": %d, \
              \"strong\": %d, \"inflight_max\": %d, \"active_max\": %d }"
             n (Core.Json_export.str pname)
             (if reliable then "reliable" else "raw")
             wall_s (Core.Metrics.messages m)
             m.Core.Metrics.delivery.Core.Metrics.wire_messages
             (strong_count r) s.Core.Metrics.inflight_max
             s.Core.Metrics.active_max)
         cells)
  in
  (* O(active): 200 updates over 100 sources cost about what they cost
     over 10; the O(N)-per-step readiness rebuild pays ~10x. *)
  gate ~name:"scaling.n100_over_n10_wall_x" ~op:"<=" (Absolute 5.0)
    (n100_wall /. Float.max 1e-9 n10_wall);
  set_section "scaling"
    (Printf.sprintf
       "{\n\
       \    \"n10_wall_clock_s\": %.6f,\n\
       \    \"n100_wall_clock_s\": %.6f,\n\
       \    \"n500_wall_clock_s\": %.6f,\n\
       \    \"coalesce_off_wire_messages\": %d,\n\
       \    \"coalesce_on_wire_messages\": %d,\n\
       \    \"coalesce_saved_wire_messages\": %d,\n\
       \    \"coalesced_notes\": %d,\n\
       \    \"coalesced_batches\": %d,\n\
       \    \"coalesce_states_identical\": %b,\n\
       \    \"inflight_max_flood\": %d,\n\
       \    \"inflight_max_bounded\": %d,\n\
       \    \"inflight_max_weighted_fair\": %d,\n\
       \    \"scale_stale_quiesce_max\": %d,\n\
       \    \"cells\": [\n\
       \      %s\n\
       \    ]\n\
       \  }"
       n10_wall n100_wall n500_wall coalesce_off_wire coalesce_on_wire
       (coalesce_off_wire - coalesce_on_wire)
       coalesced_notes coalesced_batches identical (inflight flood)
       (inflight bounded) (inflight wf) stale_quiesce_max cells_json)

(* ------------------------------------------------------------------ *)
(* Self-maintainability (schema v9)                                    *)
(* ------------------------------------------------------------------ *)

let bench_selfmaint () =
  header "Self-maintainability: ECA-SM vs the query rungs and SC (k=20)";
  (* A 70/30 insert/delete mix so both local paths fire: FK-derived and
     aux-answered inserts, key-answered deletes. *)
  let spec = W.Spec.make ~c:30 ~j:4 ~k_updates:20 ~insert_ratio:0.7 ~seed:11 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.selfmaintainable spec in
  let vdef = R.Viewdef.simple view in
  let truth = R.Eval.view (R.Db.apply_all db updates) view in
  (* Structural gates first: the eligible family really is fully local,
     and the adversarial family really is refused. *)
  if not (Core.Eca_sm.applicable vdef) then
    failwith "selfmaint: the self-maintainable family is not ECA-SM eligible";
  if Core.Eca_sm.applicable (R.Viewdef.simple (W.Scenarios.adversarial_view ()))
  then failwith "selfmaint: the adversarial family must not be ECA-SM eligible";
  (* The algorithm × fault × channel matrix. ECA-SM answers every class
     warehouse-locally; the query rungs compensate; SC gets M = 0 by
     storing full base copies — the storage-for-messages trade the
     auxiliary views undercut. *)
  let algos = [ "eca"; "eca-local"; "eca-sm"; "sc" ] in
  let exec_cell (algorithm, (pname, fault), reliable) =
    let t0 = Unix.gettimeofday () in
    let result =
      Core.Engine.run
        ~schedule:(Core.Scheduler.Random 11)
        ~creator:(Core.Registry.creator_exn algorithm)
        ~sites:
          [ Core.Engine.site ~fault ~fault_seed:23 ~reliable ~name:"source" db ]
        ~views:(defs [ view ]) ~updates ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let m = result.Core.Engine.metrics in
    let ok = R.Bag.equal truth (List.assoc "VS" result.Core.Engine.final_mvs) in
    (algorithm, pname, reliable, wall_s, m, ok)
  in
  (* SC replays the stream into a validating replica: on this keyed/FK
     schema a dropped or duplicated raw delivery is a key or FK violation
     — a crash, not a divergence — so SC's faulty cells require the
     reliable sublayer. The compensating rungs never Db.apply a delivered
     update and degrade gracefully instead. *)
  let matrix =
    List.concat_map
      (fun algorithm ->
        List.concat_map
          (fun (pname, fault) ->
            List.filter_map
              (fun reliable ->
                if
                  String.equal algorithm "sc"
                  && (not reliable)
                  && not (String.equal pname "clean")
                then None
                else Some (algorithm, (pname, fault), reliable))
              [ false; true ])
          W.Scenarios.fault_profiles)
      algos
  in
  let cells = Parallel.Pool.map pool exec_cell (Array.of_list matrix) in
  Printf.printf "%-26s %8s %8s %10s %5s %8s\n" "cell" "logical" "wire"
    "bytes" "io" "correct";
  Array.iter
    (fun (algorithm, pname, reliable, wall_s, m, ok) ->
      let d = m.Core.Metrics.delivery in
      let label =
        Printf.sprintf "%s[sm/%s/%s]" algorithm pname
          (if reliable then "reliable" else "raw")
      in
      record ~delivery:d ~algorithm:label ~wall_s
        {
          m_messages = Core.Metrics.messages m;
          m_tuples = m.Core.Metrics.answer_tuples;
          m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
          m_io = m.Core.Metrics.source_io;
        };
      Printf.printf "%-26s %8d %8d %10d %5d %8s\n" label
        (Core.Metrics.messages m) d.Core.Metrics.wire_messages
        (Core.Metrics.bytes_for ~s:s_bytes m)
        m.Core.Metrics.source_io
        (if ok then "yes" else "NO");
      (* Every reliable cell and every clean cell is a correctness gate;
         raw faulty channels are allowed to diverge (that is their row's
         point). *)
      if (reliable || String.equal pname "clean") && not ok then
        failwith (label ^ ": diverged from the oracle"))
    cells;
  let find_cell algorithm pname reliable =
    match
      Array.to_list cells
      |> List.find_opt (fun (a, p, r, _, _, _) ->
             String.equal a algorithm && String.equal p pname && r = reliable)
    with
    | Some c -> c
    | None -> failwith "selfmaint: matrix cell missing"
  in
  let metrics_of (_, _, _, _, m, _) = m in
  let sm_clean = metrics_of (find_cell "eca-sm" "clean" false) in
  let eca_clean = metrics_of (find_cell "eca" "clean" false) in
  let ecal_clean = metrics_of (find_cell "eca-local" "clean" false) in
  (* The eligible cell: zero messages, zero transferred bytes, and the
     per-class counters accounting for every update with no fallback. *)
  if Core.Metrics.messages sm_clean <> 0 then
    failwith "selfmaint: ECA-SM sent messages on the eligible workload";
  if Core.Metrics.bytes_for ~s:s_bytes sm_clean <> 0 then
    failwith "selfmaint: ECA-SM transferred bytes on the eligible workload";
  let sm =
    match sm_clean.Core.Metrics.selfmaint with
    | Some sm -> sm
    | None -> failwith "selfmaint: ECA-SM run carries no selfmaint counters"
  in
  if sm.Core.Metrics.sm_fallback <> 0 then
    failwith "selfmaint: the eligible workload took the query fallback";
  if sm.Core.Metrics.sm_self + sm.Core.Metrics.sm_aux <> List.length updates
  then failwith "selfmaint: per-class counters do not cover the stream";
  (match eca_clean.Core.Metrics.selfmaint with
  | None -> ()
  | Some _ -> failwith "selfmaint: a plain ECA run reported selfmaint counters");
  (* Staleness at quiescence, observed on the eligible cell. *)
  let observed =
    Core.Engine.run
      ~schedule:(Core.Scheduler.Random 11)
      ~observe:(Observe.Collector.create ())
      ~creator:(Core.Registry.creator_exn "eca-sm")
      ~sites:[ source_site db ]
      ~views:(defs [ view ]) ~updates ()
  in
  let stale_quiesce_max =
    stale_quiesce_max ~section:"selfmaint" observed.Core.Engine.metrics
  in
  Printf.printf
    "eligible cell: M=0 B=0, classes self=%d aux=%d fallback=0, aux storage \
     %d tuples / %d bytes, quiesce staleness max %d\n"
    sm.Core.Metrics.sm_self sm.Core.Metrics.sm_aux
    sm.Core.Metrics.sm_aux_tuples sm.Core.Metrics.sm_aux_bytes
    stale_quiesce_max;
  if stale_quiesce_max <> 0 then
    failwith "selfmaint: ECA-SM was stale at a quiescence probe";
  let cells_json =
    String.concat ",\n      "
      (List.map
         (fun (algorithm, pname, reliable, wall_s, m, ok) ->
           Printf.sprintf
             "{ \"algorithm\": %s, \"profile\": %s, \"channel\": \
              \"%s\", \"wall_clock_s\": %.6f, \"messages\": %d, \
              \"wire_messages\": %d, \"bytes\": %d, \"source_io\": %d, \
              \"correct\": %b }"
             (Core.Json_export.str algorithm) (Core.Json_export.str pname)
             (if reliable then "reliable" else "raw")
             wall_s (Core.Metrics.messages m)
             m.Core.Metrics.delivery.Core.Metrics.wire_messages
             (Core.Metrics.bytes_for ~s:s_bytes m)
             m.Core.Metrics.source_io ok)
         (Array.to_list cells))
  in
  set_section "selfmaint"
    (Printf.sprintf
       "{\n\
       \    \"view\": \"VS\",\n\
       \    \"eligible_algorithm\": \"eca-sm\",\n\
       \    \"updates\": %d,\n\
       \    \"messages_eca_sm\": %d,\n\
       \    \"bytes_eca_sm\": %d,\n\
       \    \"messages_eca\": %d,\n\
       \    \"bytes_eca\": %d,\n\
       \    \"messages_eca_local\": %d,\n\
       \    \"bytes_eca_local\": %d,\n\
       \    \"self\": %d,\n\
       \    \"aux\": %d,\n\
       \    \"fallback\": %d,\n\
       \    \"aux_views\": %d,\n\
       \    \"aux_tuples\": %d,\n\
       \    \"aux_bytes\": %d,\n\
       \    \"stale_quiesce_max\": %d,\n\
       \    \"cells\": [\n\
       \      %s\n\
       \    ]\n\
       \  }"
       (List.length updates)
       (Core.Metrics.messages sm_clean)
       (Core.Metrics.bytes_for ~s:s_bytes sm_clean)
       (Core.Metrics.messages eca_clean)
       (Core.Metrics.bytes_for ~s:s_bytes eca_clean)
       (Core.Metrics.messages ecal_clean)
       (Core.Metrics.bytes_for ~s:s_bytes ecal_clean)
       sm.Core.Metrics.sm_self sm.Core.Metrics.sm_aux
       sm.Core.Metrics.sm_fallback sm.Core.Metrics.sm_aux_views
       sm.Core.Metrics.sm_aux_tuples sm.Core.Metrics.sm_aux_bytes
       stale_quiesce_max cells_json)

(* ------------------------------------------------------------------ *)
(* Online schema evolution and windowed views (schema v10)             *)
(* ------------------------------------------------------------------ *)

let bench_evolution () =
  header "Online schema evolution: DDL x fault x channel, and windowed views";
  let spec = W.Spec.make ~c:20 ~j:2 ~k_updates:24 ~insert_ratio:0.6 ~seed:13 () in
  let { W.Scenarios.db; view; updates; ddls } = W.Scenarios.evolution spec in
  (* The evolved-schema oracle: weave the DDLs through the stream exactly
     as the engine does, then recompute over the final database with the
     final view definition. *)
  let final_db =
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
  in
  let final_vd =
    List.fold_left
      (fun vd (_, d) ->
        if R.Evolve.affects vd d then R.Evolve.viewdef vd d else vd)
      (R.Viewdef.simple view) ddls
  in
  let truth = R.Viewdef.eval final_db final_vd in
  (* FIFO cells (clean, or over the reliable sublayer) carry the DDL
     protocol; they are observed so their staleness at quiescence is
     measured. Observation changes no counter. *)
  let fifo pname reliable = reliable || String.equal pname "clean" in
  let exec_cell ((pname, fault), reliable) =
    let t0 = Unix.gettimeofday () in
    let result =
      Core.Engine.run
        ~schedule:(Core.Scheduler.Random 13)
        ?observe:(collector (fifo pname reliable))
        ~evolution:ddls
        ~creator:(Core.Registry.creator_exn "eca")
        ~sites:
          [ Core.Engine.site ~fault ~fault_seed:29 ~reliable ~name:"source" db ]
        ~views:(defs [ view ]) ~updates ()
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let m = result.Core.Engine.metrics in
    let ok = R.Bag.equal truth (List.assoc "VK" result.Core.Engine.final_mvs) in
    (pname, reliable, wall_s, m, ok)
  in
  let matrix =
    List.concat_map
      (fun (pname, fault) ->
        List.map (fun reliable -> ((pname, fault), reliable)) [ false; true ])
      W.Scenarios.fault_profiles
  in
  let cells = Parallel.Pool.map pool exec_cell (Array.of_list matrix) in
  Printf.printf "%-26s %8s %8s %5s %7s %8s %8s\n" "cell" "logical" "rebuilt"
    "ddl" "stale" "retired" "correct";
  Array.iter
    (fun (pname, reliable, wall_s, m, ok) ->
      let e =
        match m.Core.Metrics.evolution with
        | Some e -> e
        | None -> failwith "evolution: run carries no evolution metrics"
      in
      let label =
        Printf.sprintf "eca[ddl/%s/%s]" pname
          (if reliable then "reliable" else "raw")
      in
      record ~delivery:m.Core.Metrics.delivery ~algorithm:label ~wall_s
        {
          m_messages = Core.Metrics.messages m;
          m_tuples = m.Core.Metrics.answer_tuples;
          m_bytes = Core.Metrics.bytes_for ~s:s_bytes m;
          m_io = m.Core.Metrics.source_io;
        };
      Printf.printf "%-26s %8d %8d %5d %7d %8d %8s\n" label
        (Core.Metrics.messages m) e.Core.Metrics.views_rebuilt
        e.Core.Metrics.ddl_applied e.Core.Metrics.stale_answers
        e.Core.Metrics.retired_answers
        (if ok then "yes" else "NO");
      (* The surviving rung: every FIFO cell (clean or reliable) must end
         at the evolved-schema oracle with its tombstone budget closed;
         raw faulty channels may diverge — that is the witness that FIFO
         carries the DDL protocol. *)
      if fifo pname reliable then begin
        if not ok then failwith (label ^ ": diverged from the evolved oracle");
        if e.Core.Metrics.ddl_applied <> List.length ddls then
          failwith (label ^ ": not every schema change was applied");
        if e.Core.Metrics.stale_answers > e.Core.Metrics.retired_answers then
          failwith (label ^ ": a stale answer was never absorbed")
      end)
    cells;
  let stale_quiesce_max =
    Array.fold_left
      (fun acc (pname, reliable, _, m, _) ->
        if fifo pname reliable then
          max acc (stale_quiesce_max ~section:"evolution" m)
        else acc)
      0 cells
  in
  if stale_quiesce_max <> 0 then
    failwith "evolution: a FIFO cell was stale at a quiescence probe";
  (* The windowed view: a delete-heavy keyed workload (deletes reach back
     into old partitions, so compensation prunes out-of-window terms and
     answers locally) under a trailing-4-partition window on r2.Y, judged
     against the windowed recompute. *)
  let wspec = W.Spec.make ~c:20 ~j:2 ~k_updates:24 ~insert_ratio:0.35 ~seed:13 () in
  let { W.Scenarios.db = wdb; view = wview; updates = wupdates } =
    W.Scenarios.keyed wspec
  in
  let window = { Core.Window.rel = "r2"; col = "Y"; k = 4 } in
  let wresult =
    Core.Engine.run
      ~schedule:(Core.Scheduler.Random 13)
      ~windows:[ ("VK", window) ]
      ~creator:(Core.Registry.creator_exn "eca")
      ~sites:[ source_site wdb ] ~views:(defs [ wview ]) ~updates:wupdates ()
  in
  let wvd = R.Viewdef.simple wview in
  let wst = Core.Window.make window wvd in
  Core.Window.init_watermark wst (R.Viewdef.eval wdb wvd);
  List.iter (Core.Window.observe_update wst) wupdates;
  let wtruth =
    Core.Window.filter wst (R.Viewdef.eval (R.Db.apply_all wdb wupdates) wvd)
  in
  if
    not
      (R.Bag.equal wtruth (List.assoc "VK" wresult.Core.Engine.final_mvs))
  then failwith "evolution: the windowed run diverged from windowed recompute";
  let we =
    match wresult.Core.Engine.metrics.Core.Metrics.evolution with
    | Some e -> e
    | None -> failwith "evolution: windowed run carries no evolution metrics"
  in
  Printf.printf
    "windowed cell (k=4): pruned_terms=%d local_answers=%d aged_partitions=%d\n"
    we.Core.Metrics.win_pruned_terms we.Core.Metrics.win_local_answers
    we.Core.Metrics.win_aged_partitions;
  if we.Core.Metrics.win_aged_partitions = 0 then
    failwith "evolution: the windowed workload aged no partition out";
  if we.Core.Metrics.win_pruned_terms = 0 then
    failwith "evolution: the windowed workload pruned no compensation term";
  let cells_json =
    String.concat ",\n      "
      (List.map
         (fun (pname, reliable, wall_s, m, ok) ->
           let e = Option.get m.Core.Metrics.evolution in
           Printf.sprintf
             "{ \"profile\": %s, \"channel\": \"%s\", \
              \"wall_clock_s\": %.6f, \"messages\": %d, \
              \"ddl_applied\": %d, \"views_rebuilt\": %d, \
              \"refresh_queries\": %d, \"stale_answers\": %d, \
              \"retired_answers\": %d, \"correct\": %b }"
             (Core.Json_export.str pname)
             (if reliable then "reliable" else "raw")
             wall_s (Core.Metrics.messages m) e.Core.Metrics.ddl_applied
             e.Core.Metrics.views_rebuilt e.Core.Metrics.refresh_queries
             e.Core.Metrics.stale_answers e.Core.Metrics.retired_answers ok)
         (Array.to_list cells))
  in
  set_section "evolution"
    (Printf.sprintf
       "{\n\
       \    \"view\": \"VK\",\n\
       \    \"updates\": %d,\n\
       \    \"ddls\": %d,\n\
       \    \"stale_quiesce_max\": %d,\n\
       \    \"window_k\": %d,\n\
       \    \"win_pruned_terms\": %d,\n\
       \    \"win_local_answers\": %d,\n\
       \    \"win_aged_partitions\": %d,\n\
       \    \"cells\": [\n\
       \      %s\n\
       \    ]\n\
       \  }"
       (List.length updates) (List.length ddls) stale_quiesce_max
       window.Core.Window.k
       we.Core.Metrics.win_pruned_terms we.Core.Metrics.win_local_answers
       we.Core.Metrics.win_aged_partitions cells_json)

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock                                                 *)
(* ------------------------------------------------------------------ *)

let bechamel_section () =
  let open Bechamel in
  header "Bechamel: wall-clock of full simulated runs";
  let spec = spec_for ~c:100 ~k:40 () in
  let { W.Scenarios.db; view; updates } = W.Scenarios.example6 spec in
  let run_algo ?rv_period algorithm schedule () =
    ignore
      (Core.Engine.run ~schedule ?rv_period
         ~creator:(Core.Registry.creator_exn algorithm)
         ~sites:[ source_site db ] ~views:(defs [ view ]) ~updates ())
  in
  let algo_tests =
    [
      Test.make ~name:"eca-best"
        (Staged.stage (run_algo "eca" Core.Scheduler.Best_case));
      Test.make ~name:"eca-worst"
        (Staged.stage (run_algo "eca" Core.Scheduler.Worst_case));
      Test.make ~name:"lca-worst"
        (Staged.stage (run_algo "lca" Core.Scheduler.Worst_case));
      Test.make ~name:"rv-every-update"
        (Staged.stage (run_algo ~rv_period:1 "rv" Core.Scheduler.Best_case));
      Test.make ~name:"rv-once"
        (Staged.stage (run_algo ~rv_period:40 "rv" Core.Scheduler.Best_case));
      Test.make ~name:"sc" (Staged.stage (run_algo "sc" Core.Scheduler.Best_case));
    ]
  in
  (* One Test.make per regenerated artifact: times one representative
     measured data point of each table/figure. These go through
     [exec_corner] directly — never the memo (which would time a table
     lookup) and never [record_exec] (Bechamel iterations must not leak
     into the runs array; iteration counts are time-adaptive and would
     make the emitted JSON nondeterministic). *)
  let corner_point scenario c k () =
    ignore (exec_corner { ck_scenario = scenario; ck_c = c; ck_k = k })
  in
  let figure_tests =
    [
      Test.make ~name:"table1"
        (Staged.stage (fun () -> ignore (W.Scenarios.example6 (spec_for ()))));
      Test.make ~name:"sec6.1-messages" (Staged.stage (corner_point 1 50 5));
      Test.make ~name:"fig6.2-point" (Staged.stage (corner_point 1 10 3));
      Test.make ~name:"fig6.3-point" (Staged.stage (corner_point 1 100 15));
      Test.make ~name:"fig6.4-point" (Staged.stage (corner_point 1 100 5));
      Test.make ~name:"fig6.5-point" (Staged.stage (corner_point 2 100 5));
    ]
  in
  let groups =
    [
      Test.make_grouped ~name:"algorithms" algo_tests;
      Test.make_grouped ~name:"figures" figure_tests;
    ]
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] group in
      let results = Analyze.all ols instance raw in
      let rows =
        Hashtbl.fold (fun name r acc -> (name, r) :: acc) results []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some (est :: _) -> Printf.printf "%-40s %14.0f ns/run\n" name est
          | Some [] | None -> Printf.printf "%-40s (no estimate)\n" name)
        rows)
    groups

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  (match Array.to_list Sys.argv with
   | _ :: "csv" :: dir :: _ ->
     write_csvs dir;
     exit 0
   | _ :: "throughput" :: _ ->
     (* `make bench-throughput`: just the sustained-throughput section,
        written to its own artifact so the committed BENCH_results.json
        is not clobbered by a partial run. *)
     let t0 = Unix.gettimeofday () in
     bench_throughput ();
     Parallel.Pool.shutdown pool;
     let total_wall_s = Unix.gettimeofday () -. t0 in
     let path = "BENCH_throughput.json" in
     write_json ~path ~mode:"throughput" ~total_wall_s;
     Printf.printf "\nwrote %d runs to %s (total_wall_clock_s %.3f, workers %d)\n"
       (List.length !json_runs) path total_wall_s workers;
     exit 0
   | _ -> ());
  let quick = Array.exists (String.equal "quick") Sys.argv in
  let t_start = Unix.gettimeofday () in
  Printf.printf "workers: %d%s\n" workers
    (if workers = 1 then " (sequential)" else "");
  prefetch_corners ();
  table1 ();
  messages ();
  figure_6_2 ();
  figure_6_3 ();
  figure_6_4 ();
  figure_6_5 ();
  crossovers ();
  ablation_compensation ();
  ablation_ecak ();
  ablation_local_rate ();
  ablation_sc ();
  ablation_outer_reads ();
  ablation_batching ();
  ablation_timing ();
  ablation_literal_eval ();
  ablation_scan_sharing ();
  ablation_skew ();
  ablation_reliability ();
  ablation_observe ();
  ablation_compound_views ();
  bench_federation ();
  bench_catalog ();
  bench_scaling ();
  bench_selfmaint ();
  bench_evolution ();
  bench_throughput ();
  if not quick then bechamel_section ();
  Parallel.Pool.shutdown pool;
  let total_wall_s = Unix.gettimeofday () -. t_start in
  let path = "BENCH_results.json" in
  write_json ~path ~mode:(if quick then "quick" else "full") ~total_wall_s;
  Printf.printf "\nwrote %d runs to %s (total_wall_clock_s %.3f, workers %d)\n"
    (List.length !json_runs) path total_wall_s workers;
  print_newline ()
