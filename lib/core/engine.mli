(** The site-graph simulation engine: one warehouse, N autonomous
    sources, one event loop.

    Nodes are {!Source_site.Source}s plus a single warehouse; each source
    is connected by its own edge — a {!Messaging.Network} channel pair
    with its own optional fault profile, reliability sublayer and
    retransmit clock. One atomic-event loop generalizes the single-source
    semantics of the paper: every iteration executes exactly one source
    update (plus its notification), one query answered at a source, or
    one message processed at the warehouse, under a {!Scheduler.policy}
    multiplexing the enabled events across sites. When nothing is enabled
    but messages are in flight, every busy edge's transport clock
    advances one tick; when the graph is fully drained the warehouse gets
    a quiescence probe (where RV flushes a partial period), and the run
    ends when the probe produces no new work.

    {!run} is the one run entry point: a single-source run is the
    one-site case ([~sites:[site ~name:"source" db]]), a federation
    passes one {!site} per source. The golden-trace suite pins the
    output of both byte-for-byte.

    Relations are owned by exactly one source; views bind to the unique
    source owning all their relations and are judged against that
    source's state sequence. Views spanning several sources are rejected
    unless [~allow_cross_source:true] opts into the naive fetch-join
    demonstration, judged against the merged global state. With a single
    source, every view binds to it unconditionally — the historical
    single-source driver's leniency. *)

module R := Relational

exception Engine_error of string

type site_spec = {
  name : string;  (** labels the edge's channels and the result entries *)
  db : R.Db.t;
  catalog : Storage.Catalog.t option;
  fault : Messaging.Fault.profile;
  fault_seed : int;
  reliable : bool;
  retransmit_timeout : int option;
}

val site :
  ?catalog:Storage.Catalog.t ->
  ?fault:Messaging.Fault.profile ->
  ?fault_seed:int ->
  ?reliable:bool ->
  ?retransmit_timeout:int ->
  name:string ->
  R.Db.t ->
  site_spec
(** A source node: clean exactly-once FIFO edge by default; [fault]
    makes both directions of this edge misbehave (seeded by
    [fault_seed]), [reliable] runs the {!Messaging.Reliable} sublayer
    over them. *)

(** How the consistency oracle maintains the per-update source-view
    states recorded in the trace. [Incremental] (the default) applies
    each update's delta query to the previous snapshot; [Recompute]
    re-evaluates every affected view — kept as a cross-checking escape
    hatch. *)
type oracle =
  | Incremental
  | Recompute

type result = {
  trace : Trace.t;
  metrics : Metrics.t;
      (** global counters; [metrics.site_delivery] carries the per-edge
          transport breakdown in site order *)
  reports : (string * Consistency.report) list;  (** per view *)
  final_mvs : (string * R.Bag.t) list;
  final_source_views : (string * R.Bag.t) list;
  negative_installs : (string * R.Bag.t) list;
      (** installed view states carrying net-negative counts — witnesses
          of over-deletion anomalies *)
  sources : (string * Source_site.Source.t) list;  (** in site order *)
  warehouse_anomalies : string list;
      (** misrouted messages the warehouse absorbed (see
          {!Warehouse.anomalies}) *)
}

val run :
  ?schedule:Scheduler.policy ->
  ?rv_period:int ->
  ?batch_size:int ->
  ?local_literal_eval:bool ->
  ?allow_cross_source:bool ->
  ?max_steps:int ->
  ?oracle:oracle ->
  ?observe:Observe.Collector.t ->
  ?share_deltas:bool ->
  ?coalesce:bool ->
  ?shard:Parallel.Pool.t ->
  ?track_scale:bool ->
  ?evolution:(int * R.Update.ddl) list ->
  ?windows:(string * Window.spec) list ->
  creator:Algorithm.creator ->
  sites:site_spec list ->
  views:R.Viewdef.t list ->
  updates:R.Update.t list ->
  unit ->
  result
(** Replays the update stream over the site graph. Each update routes to
    the source owning its relation and executes there; updates with
    [seq = 0] are numbered in global stream order. With [batch_size > 1]
    one source event atomically executes up to that many {e consecutive
    same-source} updates and sends a single batched notification — a
    batch never spans sources. Queries route to the source owning their
    base relations. Initial materialized views are computed from the
    site databases (the paper's "initially correct" assumption).

    @raise Engine_error when a relation is owned by two sources, a view
    uses an unowned relation or spans several sources without
    [~allow_cross_source], an update or query targets an unowned
    relation, a protocol invariant breaks, or [max_steps] is exceeded.

    With [?observe] the loop additionally emits a typed span per atomic
    event into the collector — clocked by the deterministic step counter,
    so traces reproduce exactly across runs — plus per-view staleness
    gauges, and [result.metrics.observe] carries the derived summary.
    Without it the engine takes no observability branch at all: metrics,
    trace and reports are byte-identical to an unobserved build.

    With [~share_deltas:true] the warehouse runs multi-query-optimized
    shared maintenance (see {!Warehouse.create}): inside one atomic
    event, structurally equal queries from distinct hosted views ship
    once and the answer fans out to every subscriber;
    [result.metrics.shared] then carries the sharing counters. Sharing
    is restricted to distinct instances within one event, so a
    single-view run — and any catalog whose views never coincide — is
    byte-identical to an unshared one apart from the extra metrics
    field. Default off.

    With [~coalesce:true] a source event keeps absorbing {e consecutive
    same-relation, same-kind} updates of its source past [batch_size]:
    the whole update-class run executes as one atomic batch and ships as
    a single [Batch_note], feeding the compiled [apply_batch] path at
    the warehouse and cutting the notification count on a hot edge.
    Default off — and off is byte-identical to the historical engine.

    With [~shard] the warehouse fans the independent per-view work of
    each event across the given domain pool (see {!Warehouse.create});
    results are deterministic at any worker count. The pool is borrowed,
    not owned — the caller shuts it down.

    With [~track_scale:true] the run additionally reports
    [result.metrics.scale]: peak per-edge inflight, coalescing counters
    and the peak active-edge count — the observables of the scale-out
    machinery. Off by default so reports stay byte-identical.

    With [~evolution] the update stream carries online schema changes: a
    [(p, ddl)] pair fires after [p] DML updates have executed, as its
    own atomic source event (never batched or coalesced). The change
    applies to the owning source's base relations, the oracle rewrites
    every affected view definition and restages its delta programs, and
    a [Ddl_note] travels the owning edge; on arrival the warehouse
    rewrites its hosted definitions, swaps affected instances for
    online-refreshing ECA ones ({!Eca.refresh}) and retires the routes
    of in-flight queries that straddle the change — the sources answer
    those empty at zero cost, and the warehouse absorbs the tombstones.
    On clean or reliable (FIFO) edges the note precedes every tombstone,
    so consistency and convergence survive the boundary; raw faulty
    edges may reorder the note and lose both. [result.metrics.evolution]
    carries the counters. Empty [evolution] is byte-identical to the
    historical engine.

    With [~windows] the named views are trailing-k-partition views (see
    {!Window}): their warehouse instances are wrapped to filter installs
    to the live window, prune out-of-window compensation terms and age
    partitions out deterministically at quiescence probes, while the
    oracle's states are filtered through an independent watermark
    advanced at source execution — windowed runs are judged
    windowed-vs-windowed.
    @raise Engine_error when a window spec names an unknown view.
    @raise Window.Window_error on an invalid partition attribute. *)
