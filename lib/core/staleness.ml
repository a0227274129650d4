module R = Relational

type t = {
  samples : int;  (* events at which the lag was sampled *)
  max_lag : int;
  mean_lag : float;
  final_lag : int;  (* lag at the end of the run *)
  unmatched : int;  (* samples where the view matched no source state *)
}

let zero = { samples = 0; max_lag = 0; mean_lag = 0.0; final_lag = 0; unmatched = 0 }

(* Walk the trace in event order, tracking the current materialized view
   (updated by installations) and the history of source states. After
   every source event, the view's lag is the number of source events since
   the newest source state equal to the current view; the statistics are
   the time average over those samples. A view state that matches no
   source state at all (an anomaly) contributes to [unmatched] and counts
   with the maximal possible lag. Source states and installed views are
   numbered up to equality as they arrive, and [newest] keeps, per class,
   the index of the newest source state in it. *)
let of_trace trace name =
  let initial =
    match List.assoc_opt name (Trace.initial_views trace) with
    | Some v -> v
    | None -> R.Bag.empty
  in
  let classes = R.Bag.Classes.create () in
  let newest = Hashtbl.create 64 in
  let current = ref 0 in
  let mv_class = ref (R.Bag.Classes.add classes initial) in
  Hashtbl.replace newest !mv_class 0;
  let lags = ref [] in
  let unmatched = ref 0 in
  List.iter
    (fun entry ->
      (match entry with
       | Trace.Source_update { source_views; _ }
       | Trace.Source_ddl { source_views; _ } -> (
         incr current;
         match List.assoc_opt name source_views with
         | Some v ->
           Hashtbl.replace newest (R.Bag.Classes.add classes v) !current
         | None -> ())
       | Trace.Warehouse_note { installs; _ }
       | Trace.Warehouse_answer { installs; _ }
       | Trace.Quiesce_probe { installs; _ }
       | Trace.Warehouse_ddl { installs; _ } -> (
         match List.assoc_opt name installs with
         | Some states -> (
           match List.rev states with
           | last :: _ -> mv_class := R.Bag.Classes.add classes last
           | [] -> ())
         | None -> ())
       | Trace.Source_answer _ -> ());
      (* sample after every atomic event, giving a time-weighted lag *)
      let lag =
        match Hashtbl.find_opt newest !mv_class with
        | Some idx -> !current - idx
        | None ->
          incr unmatched;
          !current
      in
      lags := lag :: !lags)
    (Trace.entries trace);
  match !lags with
  | [] -> zero
  | final_lag :: _ as lags ->
    (* nothing changes after the last event: its sample is the final lag *)
    let n = List.length lags in
    {
      samples = n;
      max_lag = List.fold_left max 0 lags;
      mean_lag = float_of_int (List.fold_left ( + ) 0 lags) /. float_of_int n;
      final_lag;
      unmatched = !unmatched;
    }

let pp ppf t =
  Format.fprintf ppf
    "lag: mean %.2f, max %d, final %d (%d samples, %d unmatched)" t.mean_lag
    t.max_lag t.final_lag t.samples t.unmatched
