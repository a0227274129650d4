(* The traced replay behind the per-layer ledger.

   [run w recorded] drives workload [w] a second time through the public
   functions of each layer, in the order [Core.Engine.run]'s event loop
   calls them for this configuration (clean edges, no batching or
   coalescing, no schema changes or windows, the compiled incremental
   oracle, no shard pool). Every call into a layer is timed and its
   minor-heap allocation counted. Every step is also checked against
   [recorded], the untraced run of the same workload: the scheduler's
   pick, each reaction (query gids, queries, installs), each answer, the
   final MVs, the reports and the run's counters must all be reproduced,
   or the replay raises [Mismatch]. *)

module R = Relational
module E = Core.Engine
module S = Core.Scheduler
module N = Messaging.Network
module M = Messaging.Message
module Src = Source_site.Source
module T = Core.Trace
module Wh = Core.Warehouse

exception Mismatch of string

let mismatch fmt = Format.kasprintf (fun s -> raise (Mismatch s)) fmt
let now_ns = Measure.now_ns

type layer = {
  name : string;
  mutable calls : int;
  mutable busy_ns : int;
  mutable words : float;
  quarter_ns : int array;
      (* busy time by quarter of the update stream; calls made after the
         last update (the final drain and the reports) fall in none *)
}

type ledger = {
  layers : layer list;
  answer_tuples : int;
  source_io : int;
  wire_msgs : int;
  wire_bytes : int;
  queue_max : int;  (* peak Network.load on any edge *)
  inflight_max : int;  (* peak outstanding query gids *)
  shared_hit_ratio : float;
  algorithm_queries : int;
  algorithm_installs : int;
  wall_ns : int;
  consistency_tail_ratio : float;
}

let new_layer name =
  { name; calls = 0; busy_ns = 0; words = 0.; quarter_ns = Array.make 4 0 }

let busy_s l = float_of_int l.busy_ns *. 1e-9

(* Last-quarter busy time over first-quarter busy time; 0 when the layer
   did no work in the first quarter. *)
let tail_ratio l =
  if l.quarter_ns.(0) = 0 then 0.
  else float_of_int l.quarter_ns.(3) /. float_of_int l.quarter_ns.(0)

(* The stream quarter the current event belongs to, or -1 past the
   stream's end. *)
let quarter = ref (-1)

let charge l ~ns ~words =
  l.calls <- l.calls + 1;
  l.busy_ns <- l.busy_ns + ns;
  l.words <- l.words +. words;
  if !quarter >= 0 then l.quarter_ns.(!quarter) <- l.quarter_ns.(!quarter) + ns

let timed l f x =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f x in
  let ns = now_ns () - t0 in
  charge l ~ns ~words:(Gc.minor_words () -. w0);
  r

let equal_installs =
  List.equal (fun (v, states) (v', states') ->
      String.equal v v' && List.equal R.Bag.equal states states')

let equal_queries =
  List.equal (fun (g, q) (g', q') -> g = g' && R.Query.equal q q')

let equal_views =
  List.equal (fun (v, b) (v', b') -> String.equal v v' && R.Bag.equal b b')

(* The algorithm layer: every instance callback timed, and the queries
   and installs it returns counted. *)
let instrument_creator alg ~queries ~installs (creator : Core.Algorithm.creator)
    cfg =
  let count (o : Core.Algorithm.outcome) =
    queries := !queries + List.length o.Core.Algorithm.send;
    installs := !installs + List.length o.Core.Algorithm.installs;
    o
  in
  let inst = timed alg creator cfg in
  {
    inst with
    Core.Algorithm.on_update =
      (fun u -> count (timed alg inst.Core.Algorithm.on_update u));
    on_batch = (fun us -> count (timed alg inst.Core.Algorithm.on_batch us));
    on_answer =
      (fun ~id b ->
        count (timed alg (fun b -> inst.Core.Algorithm.on_answer ~id b) b));
    mv = (fun () -> timed alg inst.Core.Algorithm.mv ());
    on_quiesce =
      (fun () -> count (timed alg inst.Core.Algorithm.on_quiesce ()));
    quiescent = (fun () -> timed alg inst.Core.Algorithm.quiescent ());
    counters = (fun () -> timed alg inst.Core.Algorithm.counters ());
  }

(* Consistency.check over the states recorded by the first [cut] trace
   entries, in seconds. *)
let check_prefix trace cut =
  let prefix = T.create ~initial_views:(T.initial_views trace) in
  List.iteri (fun k e -> if k < cut then T.record prefix e) (T.entries trace);
  let seqs =
    List.map
      (fun (v, _) -> (T.source_states prefix v, T.warehouse_states prefix v))
      (T.initial_views trace)
  in
  let t0 = now_ns () in
  List.iter
    (fun (source_states, warehouse_states) ->
      ignore (Core.Consistency.check ~source_states ~warehouse_states))
    seqs;
  float_of_int (now_ns () - t0) *. 1e-9

(* The index of the entry that applies update [k + 1]: the entries before
   it are those recorded while at most [k] updates had been applied. *)
let cut_after_updates trace k =
  let rec go idx seen = function
    | [] -> idx
    | T.Source_update _ :: _ when seen = k -> idx
    | T.Source_update _ :: rest -> go (idx + 1) (seen + 1) rest
    | _ :: rest -> go (idx + 1) seen rest
  in
  go 0 0 (T.entries trace)

let run (w : Workloads.t) (recorded : E.result) =
  if not (R.Delta_program.compiled ()) then
    invalid_arg "Replay.run mirrors the engine's compiled oracle path";
  let src_exec = new_layer "source_site.execute"
  and src_answer = new_layer "source_site.answer"
  and messaging = new_layer "messaging"
  and scheduler = new_layer "scheduler"
  and warehouse_l = new_layer "warehouse"
  and alg = new_layer "algorithm"
  and oracle = new_layer "oracle"
  and trace_l = new_layer "trace"
  and consistency = new_layer "consistency" in
  (* The warehouse's own time: its calls minus the algorithm callbacks
     they make. *)
  let in_warehouse f x =
    let b0 = alg.busy_ns and a0 = alg.words in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let r = f x in
    let ns = now_ns () - t0 in
    let words = Gc.minor_words () -. w0 in
    let alg_ns = alg.busy_ns - b0 in
    charge warehouse_l ~ns:(ns - alg_ns) ~words:(words -. (alg.words -. a0));
    r
  in
  quarter := -1;
  let t_start = now_ns () in
  let specs = Array.of_list w.Workloads.sites in
  let n = Array.length specs in
  let sources =
    Array.map
      (fun (s : E.site_spec) -> Src.create ?catalog:s.E.catalog s.E.db)
      specs
  in
  let nets =
    Array.map
      (fun (s : E.site_spec) ->
        N.create ~name:s.E.name ~fault:s.E.fault ~seed:s.E.fault_seed
          ~reliable:s.E.reliable ?timeout:s.E.retransmit_timeout ())
      specs
  in
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i src ->
      List.iter
        (fun rel -> Hashtbl.replace owner rel i)
        (R.Db.relation_names (Src.db src)))
    sources;
  let views = Array.of_list w.Workloads.views in
  let nviews = Array.length views in
  let vname = Array.map (fun (v : R.Viewdef.t) -> v.R.Viewdef.name) views in
  let vsite =
    Array.map
      (fun v ->
        if n = 1 then 0
        else
          match
            List.sort_uniq Int.compare
              (List.map (Hashtbl.find owner) (R.Viewdef.relation_names v))
          with
          | [ i ] -> i
          | _ -> invalid_arg "Replay.run: a view spans several sources")
      views
  in
  let site_views = Array.make n [] in
  for vi = nviews - 1 downto 0 do
    site_views.(vsite.(vi)) <- vi :: site_views.(vsite.(vi))
  done;
  let site_db vi = Src.db sources.(vsite.(vi)) in
  let configs =
    Array.to_list
      (Array.mapi
         (fun vi v -> Core.Algorithm.Config.of_db ~rv_period:1 v (site_db vi))
         views)
  in
  let alg_queries = ref 0 and alg_installs = ref 0 in
  let creator =
    instrument_creator alg ~queries:alg_queries ~installs:alg_installs
      w.Workloads.creator
  in
  let warehouse =
    in_warehouse
      (fun () ->
        Wh.of_creator ~share:w.Workloads.share_deltas ~creator ~configs ())
      ()
  in
  let sched = S.create w.Workloads.schedule in
  let snap =
    timed oracle
      (fun () ->
        Array.mapi (fun vi v -> R.Viewdef.eval (site_db vi) v) views)
      ()
  in
  let trace =
    timed trace_l
      (fun initial_views -> T.create ~initial_views)
      (Array.to_list (Array.mapi (fun vi b -> (vname.(vi), b)) snap))
  in
  let staged = Array.make nviews None in
  let advance i (us : R.Update.t list) =
    match us with
    | [] -> ()
    | first :: _ ->
      let tuples = List.map (fun (u : R.Update.t) -> u.R.Update.tuple) us in
      let db = Src.db sources.(i) in
      List.iter
        (fun vi ->
          let p =
            match staged.(vi) with
            | Some p -> p
            | None ->
              let p = R.Delta_program.stage views.(vi) in
              staged.(vi) <- Some p;
              p
          in
          match R.Delta_program.of_update p first with
          | None -> ()
          | Some prog ->
            snap.(vi) <-
              R.Bag.plus snap.(vi) (R.Delta_program.apply_batch prog db tuples))
        site_views.(i)
  in
  let owner_of rel =
    match Hashtbl.find_opt owner rel with
    | Some i -> i
    | None -> mismatch "no source owns relation %s" rel
  in
  let site_of_update (u : R.Update.t) =
    if n = 1 then 0 else owner_of u.R.Update.rel
  in
  let site_of_query q =
    if n = 1 then 0
    else match R.Query.base_relations q with rel :: _ -> owner_of rel | [] -> 0
  in
  (* The recorded run, consumed entry by entry. *)
  let expected = ref (T.entries recorded.E.trace) in
  let expect what =
    match !expected with
    | e :: rest ->
      expected := rest;
      e
    | [] -> mismatch "the replay made a %s after the recorded trace ended" what
  in
  let total = List.length w.Workloads.updates in
  let pending = ref w.Workloads.updates in
  let applied = ref 0 and next_seq = ref 0 in
  let steps = ref 0 in
  let queries_sent = ref 0 and query_bytes = ref 0 in
  let answers_received = ref 0 and answer_bytes = ref 0 in
  let answer_tuples = ref 0 and source_io = ref 0 in
  let outstanding = ref 0 and inflight_max = ref 0 and queue_max = ref 0 in
  let ready = S.Ready.create n in
  let active = ref S.Iset.empty in
  let refresh_edge i =
    let net = nets.(i) in
    S.Ready.set_source ready i (N.can_receive net N.To_source);
    S.Ready.set_warehouse ready i (N.can_receive net N.To_warehouse);
    let load = N.load net in
    S.Ready.set_load ready i load;
    if load > !queue_max then queue_max := load;
    if N.idle net then active := S.Iset.remove i !active
    else active := S.Iset.add i !active
  in
  let refresh_update () =
    match !pending with
    | [] ->
      S.Ready.set_update ready false;
      S.Ready.set_update_site ready (-1)
    | u :: _ ->
      S.Ready.set_update ready true;
      S.Ready.set_update_site ready (site_of_update u)
  in
  let ship (queries : (int * R.Query.t) list) =
    List.iter
      (fun (gid, q) ->
        let i = site_of_query q in
        let msg = M.Query { id = gid; query = q } in
        incr queries_sent;
        query_bytes := !query_bytes + M.byte_size msg;
        incr outstanding;
        if !outstanding > !inflight_max then inflight_max := !outstanding;
        timed messaging (N.send nets.(i) N.To_source) msg;
        timed scheduler refresh_edge i)
      queries
  in
  let apply_update () =
    match !pending with
    | [] -> mismatch "the scheduler applied an update past the stream's end"
    | u :: rest ->
      pending := rest;
      incr next_seq;
      let u = if u.R.Update.seq = 0 then R.Update.with_seq !next_seq u else u in
      let i = site_of_update u in
      timed src_exec (Src.execute_update sources.(i)) u;
      timed oracle (advance i) [ u ];
      timed messaging (N.send nets.(i) N.To_warehouse) (M.Update_note u);
      let source_views =
        List.map (fun vi -> (vname.(vi), snap.(vi))) site_views.(i)
      in
      let entry = T.Source_update { updates = [ u ]; source_views } in
      timed trace_l (T.record trace) entry;
      (match expect "source update" with
      | T.Source_update r
        when List.equal R.Update.equal r.updates [ u ]
             && equal_views r.source_views source_views ->
        ()
      | _ -> mismatch "step %d: update %s diverges from the recording" !steps
               (R.Update.to_string u));
      incr applied;
      i
  in
  let source_receive i =
    match timed messaging (N.receive nets.(i)) N.To_source with
    | Some (M.Query { id; query }) ->
      let answer, cost =
        timed src_answer (fun q -> Src.answer_query sources.(i) ~id q) query
      in
      source_io := !source_io + cost.Storage.Cost.io;
      timed messaging
        (N.send nets.(i) N.To_warehouse)
        (M.Answer { id; answer; cost });
      timed trace_l (T.record trace)
        (T.Source_answer { gid = id; answer; cost });
      (match expect "source answer" with
      | T.Source_answer r
        when r.gid = id && R.Bag.equal r.answer answer
             && Storage.Cost.equal r.cost cost ->
        ()
      | _ -> mismatch "step %d: the answer to query %d diverges" !steps id)
    | _ -> mismatch "step %d: source %d had no query to answer" !steps i
  in
  let warehouse_receive i =
    match timed messaging (N.receive nets.(i)) N.To_warehouse with
    | None -> mismatch "step %d: warehouse edge %d was empty" !steps i
    | Some msg ->
      (match msg with
      | M.Answer { cost; _ } ->
        incr answers_received;
        decr outstanding;
        answer_tuples := !answer_tuples + cost.Storage.Cost.answer_tuples;
        answer_bytes := !answer_bytes + cost.Storage.Cost.answer_bytes
      | _ -> ());
      let reaction = in_warehouse (Wh.handle_message warehouse) msg in
      ship reaction.Wh.queries;
      let entry, same =
        match msg with
        | M.Update_note u ->
          let e =
            T.Warehouse_note
              {
                updates = [ u ];
                queries = reaction.Wh.queries;
                installs = reaction.Wh.installs;
              }
          in
          ( e,
            function
            | T.Warehouse_note r ->
              List.equal R.Update.equal r.updates [ u ]
              && equal_queries r.queries reaction.Wh.queries
              && equal_installs r.installs reaction.Wh.installs
            | _ -> false )
        | M.Answer { id; _ } ->
          ( T.Warehouse_answer { gid = id; installs = reaction.Wh.installs },
            function
            | T.Warehouse_answer r ->
              r.gid = id && equal_installs r.installs reaction.Wh.installs
            | _ -> false )
        | _ ->
          mismatch "step %d: unexpected %s at the warehouse" !steps
            (M.kind_name msg)
      in
      timed trace_l (T.record trace) entry;
      if not (same (expect "warehouse event")) then
        mismatch "step %d: the warehouse reaction diverges from the recording"
          !steps
  in
  refresh_update ();
  let rec loop () =
    incr steps;
    quarter := if !applied < total then !applied * 4 / total else -1;
    match timed scheduler (S.pick_ready sched) ready with
    | Some S.Apply ->
      let i = apply_update () in
      timed scheduler refresh_edge i;
      timed scheduler refresh_update ();
      loop ()
    | Some (S.Site_source i) ->
      source_receive i;
      timed scheduler refresh_edge i;
      loop ()
    | Some (S.Site_warehouse i) ->
      warehouse_receive i;
      timed scheduler refresh_edge i;
      loop ()
    | None ->
      if not (S.Iset.is_empty !active) then
        invalid_arg "Replay.run: a clean edge needed a transport tick";
      let reaction = in_warehouse Wh.quiesce warehouse in
      ship reaction.Wh.queries;
      if reaction.Wh.queries <> [] || reaction.Wh.installs <> [] then begin
        timed trace_l (T.record trace)
          (T.Quiesce_probe
             {
               queries = reaction.Wh.queries;
               installs = reaction.Wh.installs;
             });
        (match expect "quiescence probe" with
        | T.Quiesce_probe r
          when equal_queries r.queries reaction.Wh.queries
               && equal_installs r.installs reaction.Wh.installs ->
          ()
        | _ -> mismatch "step %d: the quiescence probe diverges" !steps);
        loop ()
      end
  in
  loop ();
  quarter := -1;
  if !expected <> [] then
    mismatch "the replay ended %d entries before the recording"
      (List.length !expected);
  let final_mvs = in_warehouse Wh.mvs warehouse in
  let reports =
    Array.to_list
      (Array.map
         (fun v ->
           let source_states = timed trace_l (T.source_states trace) v in
           let warehouse_states = timed trace_l (T.warehouse_states trace) v in
           ( v,
             timed consistency
               (fun () ->
                 Core.Consistency.check ~source_states ~warehouse_states)
               () ))
         vname)
  in
  let wall_ns = now_ns () - t_start in
  (* Fidelity of the end state and of the run's counters. *)
  if not (equal_views final_mvs recorded.E.final_mvs) then
    mismatch "the final MVs diverge";
  if
    not
      (equal_views
         (Array.to_list (Array.mapi (fun vi b -> (vname.(vi), b)) snap))
         recorded.E.final_source_views)
  then mismatch "the final source views diverge";
  if reports <> recorded.E.reports then
    mismatch "the consistency reports diverge";
  let m = recorded.E.metrics in
  List.iter
    (fun (what, mine, theirs) ->
      if mine <> theirs then
        mismatch "%s: replay %d, recording %d" what mine theirs)
    [
      ("updates", !applied, m.Core.Metrics.updates);
      ("steps", !steps, m.Core.Metrics.steps);
      ("queries", !queries_sent, m.Core.Metrics.queries_sent);
      ("query bytes", !query_bytes, m.Core.Metrics.query_bytes);
      ("answers", !answers_received, m.Core.Metrics.answers_received);
      ("answer tuples", !answer_tuples, m.Core.Metrics.answer_tuples);
      ("answer bytes", !answer_bytes, m.Core.Metrics.answer_bytes);
      ("source io", !source_io, m.Core.Metrics.source_io);
    ];
  let shared_hit_ratio =
    if not w.Workloads.share_deltas then 0.
    else
      let _, hits, _ = Wh.shared_counters warehouse in
      float_of_int hits /. float_of_int (max 1 (hits + !queries_sent))
  in
  (* The checker runs once, after the stream; its tail ratio is the
     marginal cost of checking the last quarter of the recorded states
     over the cost of checking the first quarter. *)
  let consistency_tail_ratio =
    let first = check_prefix trace (cut_after_updates trace (total / 4)) in
    let three = check_prefix trace (cut_after_updates trace (3 * total / 4)) in
    if first <= 0. then 0. else (busy_s consistency -. three) /. first
  in
  {
    layers =
      [
        src_exec; src_answer; messaging; scheduler; warehouse_l; alg; oracle;
        trace_l; consistency;
      ];
    answer_tuples = !answer_tuples;
    source_io = !source_io;
    wire_msgs = Array.fold_left (fun acc n -> acc + N.total_messages n) 0 nets;
    wire_bytes = Array.fold_left (fun acc n -> acc + N.total_bytes n) 0 nets;
    queue_max = !queue_max;
    inflight_max = !inflight_max;
    shared_hit_ratio;
    algorithm_queries = !alg_queries;
    algorithm_installs = !alg_installs;
    wall_ns;
    consistency_tail_ratio;
  }
