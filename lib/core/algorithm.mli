(** The common interface of all warehouse view-maintenance algorithms.

    An algorithm instance maintains one materialized view. The warehouse
    driver feeds it the two warehouse event kinds of Section 3 — update
    notifications ([W_up]) and query answers ([W_ans]) — and the instance
    reacts with queries to send to the source and/or new materialized-view
    states to install. All algorithms of the paper (Basic, ECA, ECAK,
    ECAL, LCA, RV, SC) implement this interface. *)

module R := Relational

module Config : sig
  type t = {
    view : R.Viewdef.t;
        (** a simple SPJ view, or a signed union/difference of them *)
    init_mv : R.Bag.t;  (** assumed correct w.r.t. the initial source state *)
    init_db : R.Db.t option;  (** initial base relations, for SC's replica *)
    rv_period : int;  (** RV's recompute-every-[s]-updates parameter *)
    local_literal_eval : bool;
        (** evaluate literal-only query terms at the warehouse instead of
            shipping them (Appendix D's optimization; default on — turn
            off to measure its value) *)
  }

  val make :
    ?init_db:R.Db.t option ->
    ?rv_period:int ->
    ?local_literal_eval:bool ->
    view:R.Viewdef.t ->
    init_mv:R.Bag.t ->
    unit ->
    t

  val of_db :
    ?rv_period:int -> ?local_literal_eval:bool -> R.Viewdef.t -> R.Db.t -> t
  (** Configuration whose initial view is computed from a database
      instance — the paper's "initial materialized view is correct"
      assumption made executable. *)

  val of_view_db :
    ?rv_period:int -> ?local_literal_eval:bool -> R.View.t -> R.Db.t -> t
  (** [of_db] over a simple SPJ view. *)
end

(** What an event handler decided to do. *)
type outcome = {
  send : (int * R.Query.t) list;
      (** queries to ship to the source, with instance-local ids; the
          answer returns under the same id. LCA sends several per update
          (base query plus tagged compensations). *)
  installs : R.Bag.t list;
      (** successive new materialized-view states, oldest first. More than
          one only when an event unblocks several buffered per-update
          deltas (LCA); each is a distinct view state for the consistency
          checkers. *)
}

val nothing : outcome
val install : R.Bag.t -> outcome
val send_one : int -> R.Query.t -> outcome
val combine : outcome -> outcome -> outcome

(** A running algorithm instance (internal state captured in closures). *)
type instance = {
  name : string;
  interest : string list option;
      (** the base relations whose updates this instance reacts to, or
          [None] for all of them. [Some rels] is a {e promise} that
          [on_update]/[on_batch] return {!nothing} and change no internal
          state for updates targeting other relations — the warehouse
          then skips the instance outright, which is what keeps dispatch
          O(interested) instead of O(views) in a wide catalog. Stateful
          per-update counters (LCA's event clock, the {!Timing} wrappers'
          buffers) must declare [None]. *)
  on_update : R.Update.t -> outcome;  (** a [W_up] event *)
  on_batch : R.Update.t list -> outcome;
      (** a batched notification (Section 7's batched-update extension):
          several updates executed atomically at the source and processed
          as one warehouse event. ECA and LCA override this to fold the
          whole batch into fewer query messages; the rest replay the batch
          through [on_update] via {!sequential_batch}. *)
  on_answer : id:int -> R.Bag.t -> outcome;  (** a [W_ans] event *)
  mv : unit -> R.Bag.t;  (** current materialized view *)
  on_quiesce : unit -> outcome;
      (** called by the engine when the update stream is exhausted and no
          message is in flight; lets RV issue its final recompute. *)
  quiescent : unit -> bool;  (** no unanswered queries or buffered work *)
  counters : unit -> (string * int) list;
      (** algorithm-specific counters for the metrics surfaces ([[]] for
          most algorithms; ECA-SM reports its self-maintenance tallies
          here). Reading must not change state. *)
}

type creator = Config.t -> instance

val sequential_batch :
  (R.Update.t -> outcome) -> R.Update.t list -> outcome
(** Default [on_batch]: replay through [on_update] in source order,
    keeping only the final installed state (a batch is one atomic event,
    so intermediate view states are unobservable). *)
