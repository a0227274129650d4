(* One untraced run of a workload: its wall time, its exact counts and
   the correctness gate. *)

module R = Relational
module E = Core.Engine

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Everything a run counts rather than times; equal across repeats of one
   seed once the evaluator's caches are warm. *)
type counts = {
  updates : int;
  messages : int;  (* the paper's M *)
  bytes : int;  (* the paper's B at the default S *)
  source_io : int;
  words : float;  (* minor-heap words allocated inside Engine.run *)
}

type run = {
  wall_ns : int;
  result : (E.result, string) Stdlib.result;
  counts : counts option;
}

let bytes_s = Costmodel.Params.default.Costmodel.Params.s

let counts_of ~words (r : E.result) =
  let m = r.E.metrics in
  {
    updates = m.Core.Metrics.updates;
    messages = Core.Metrics.messages m;
    bytes = Core.Metrics.bytes_for ~s:bytes_s m;
    source_io = m.Core.Metrics.source_io;
    words;
  }

(* [Engine.run] timed. Each run starts after a full major collection
   ([Gc.compact]), so its time does not pay for collecting the garbage
   earlier runs left behind. An exception from the engine is a failed
   run. *)
let untraced (w : Workloads.t) =
  Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  match Workloads.run w with
  | r ->
    let wall_ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    { wall_ns; result = Ok r; counts = Some (counts_of ~words r) }
  | exception e ->
    {
      wall_ns = now_ns () - t0;
      result = Error (Printexc.to_string e);
      counts = None;
    }

(* The views of [w] that fail the gate in run [r]: not strongly
   consistent, final MV different from the final source view, a negative
   install, or any warehouse anomaly. An engine exception fails them
   all. *)
let failed_views (w : Workloads.t) r =
  match r.result with
  | Error _ ->
    List.map (fun (v : R.Viewdef.t) -> v.R.Viewdef.name) w.Workloads.views
  | Ok r ->
    List.filter_map
      (fun (v : R.Viewdef.t) ->
        let name = v.R.Viewdef.name in
        let ok =
          r.E.warehouse_anomalies = []
          && (match List.assoc_opt name r.E.reports with
             | Some rep -> rep.Core.Consistency.strongly_consistent
             | None -> false)
          && (match
                ( List.assoc_opt name r.E.final_mvs,
                  List.assoc_opt name r.E.final_source_views )
              with
             | Some mv, Some sv -> R.Bag.equal mv sv
             | _ -> false)
          && not (List.mem_assoc name r.E.negative_installs)
        in
        if ok then None else Some name)
      w.Workloads.views
