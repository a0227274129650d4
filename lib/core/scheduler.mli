(** Interleaving control for the simulation.

    The anomaly phenomenon — and the best/worst cases of the performance
    study — are entirely determined by how source updates interleave with
    query answering. The scheduler picks the next atomic event among the
    currently enabled ones. Over the general site graph (one warehouse,
    N sources — see {!Engine}) the events are:

    - [Apply]: the next workload update executes at its owning source,
      which sends the notification (an [S_up] event);
    - [Site_source i]: source [i] takes the next query off its channel
      and answers it (an [S_qu] event);
    - [Site_warehouse i]: the warehouse processes the next incoming
      message from source [i] (a [W_up] or [W_ans] event).

    The historical single-site vocabulary ({!action}/{!enabled}/{!pick})
    is the [N = 1] specialization and is implemented as exactly that, so
    the two entry points cannot drift apart.

    Scheduling state is held in ready {i sets}, not N-wide arrays: the
    engine marks edges ready/unready as sends, receives and transport
    ticks happen, and every pick costs O(active edges), not O(N) — the
    property that lets one event loop drive hundreds of sources. The
    array-based {!pick_multi} remains as a compatibility wrapper.

    FIFO channel order is preserved per edge regardless of the policy,
    matching the paper's delivery assumptions. *)

type action =
  | Apply_update
  | Source_receive
  | Warehouse_receive

type enabled = {
  can_update : bool;
  can_source : bool;
  can_warehouse : bool;
}

type event =
  | Apply  (** execute the next workload update at its owning source *)
  | Site_source of int  (** source [i] answers its next pending query *)
  | Site_warehouse of int
      (** the warehouse processes the next message from source [i] *)

type multi = {
  update_ready : bool;
  source_ready : bool array;  (** per site, indexed as in the site graph *)
  warehouse_ready : bool array;
}
(** The enabled-event sets of a site graph; the arrays must have equal
    length (one slot per source). *)

exception Schedule_error of string

type policy =
  | Best_case
      (** drain all messages between updates: queries never overlap
          updates; ECA behaves exactly like Algorithm 5.1. Sites are
          probed in order, source end before warehouse end. *)
  | Worst_case
      (** all updates enter the system before any query is answered:
          every query compensates every preceding update *)
  | Round_robin
      (** rotate over the fixed event order — the update stream, then
          each site's source and warehouse ends in site order *)
  | Random of int  (** uniform among enabled events, seeded *)
  | Explicit of action list
      (** play exactly this action sequence (used by the paper-example
          tests); over several sites each action resolves to the first
          site where it is enabled; raises {!Schedule_error} on a
          disabled action, and falls back to [Best_case] when
          exhausted *)
  | Bounded_inflight of int
      (** backpressure: apply the next update only while its edge
          carries fewer than this many undelivered messages; past the
          bound, drain the heaviest-loaded ready edges (warehouse end
          first) until the update's edge falls back under it. The bound
          must be >= 1 ({!Schedule_error} otherwise). Needs the caller
          to maintain {!Ready.set_load} and {!Ready.set_update_site};
          with all-zero loads it degenerates to an update-eager drain
          order. *)
  | Weighted_fair of int
      (** starvation-free deficit rotation with this quantum (>= 1,
          {!Schedule_error} otherwise): each visit to a site serves up
          to [min quantum (1 + load)] consecutive receive events
          (warehouse end before source end) and then moves on, with the
          update stream as its own slot in the rotation — a hot edge
          drains proportionally to its backlog, yet any ready event is
          served within [1 + (N-1) * quantum] picks of becoming
          ready. *)

module Iset : Set.S with type elt = int

(** Incrementally maintained enabled-event state of a site graph. The
    engine owns one and adjusts it edge by edge ({!Ready.set_source},
    {!Ready.set_warehouse}, {!Ready.set_update}) as messages move, so a
    {!pick_ready} never scans the site array. [loads] carries the
    per-edge in-flight message counts consumed by {!policy.Bounded_inflight}
    and {!policy.Weighted_fair}; callers that do not maintain it leave
    it at 0 and those policies degrade gracefully. *)
module Ready : sig
  type t

  val create : int -> t
  (** [create n] — state for [n] sites, nothing ready, all loads 0.
      Raises {!Schedule_error} when [n < 1]. *)

  val sites : t -> int

  val set_update : t -> bool -> unit
  (** Whether the next workload update is ready to apply. *)

  val set_update_site : t -> int -> unit
  (** The owning site of the next pending update ([-1] = unknown); only
      {!policy.Bounded_inflight} reads it. *)

  val set_source : t -> int -> bool -> unit
  (** [set_source t i ready] — source [i] has (or no longer has) a
      deliverable query on its channel end. *)

  val set_warehouse : t -> int -> bool -> unit

  val set_load : t -> int -> int -> unit
  (** [set_load t i l] — edge [i] currently carries [l] undelivered
      messages (both directions). *)

  val load : t -> int -> int

  val update_ready : t -> bool

  val idle : t -> bool
  (** No event is enabled (ticking the transport may enable some). *)

  val enabled_count : t -> int

  val of_multi : multi -> t
  (** One O(N) conversion from materialized readiness arrays; loads 0,
      update site unknown. *)
end

type t

val create : policy -> t

val pick : t -> enabled -> action option
(** The next action over a single-site graph, or [None] when nothing is
    enabled. Equivalent to {!pick_multi} with one source. *)

val pick_multi : t -> multi -> event option
(** The next event over the site graph, or [None] when nothing is
    enabled. Compatibility wrapper: converts to a {!Ready.t} (O(N)) and
    delegates to {!pick_ready}; behavior — including the RNG draw
    sequence of [Random] and the rotation of [Round_robin] — is
    identical. *)

val pick_ready : t -> Ready.t -> event option
(** The next event over incrementally maintained ready state, or [None]
    when nothing is enabled; O(active) per pick. The caller keeps the
    same [Ready.t] across picks and adjusts it as the graph evolves. *)

val action_name : action -> string
val enabled_list : enabled -> action list
