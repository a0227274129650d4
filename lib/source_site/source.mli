(** The legacy source site.

    Per the paper's constraints, the source performs no view management:
    it only (1) executes updates atomically and notifies the warehouse,
    and (2) evaluates queries against its {e current} base relations —
    which is precisely the decoupling that causes anomalies. Events
    ([S_up], [S_qu]) are atomic and logged in execution order. *)

module R := Relational

type event =
  | S_up of R.Update.t
  | S_ddl of R.Update.ddl
  | S_qu of {
      id : int;
      query : R.Query.t;
      answer : R.Bag.t;
      cost : Storage.Cost.t;
    }

type t

val create : ?catalog:Storage.Catalog.t -> R.Db.t -> t
(** A source over an initial database state; the catalog fixes the
    physical scenario used to charge I/Os. *)

val db : t -> R.Db.t
(** Current base relations ([ss_i] after the last event). *)

val catalog : t -> Storage.Catalog.t

val execute_update : t -> R.Update.t -> unit
(** The update half of an [S_up] event. The caller (the simulation
    engine) sends the notification message. *)

val execute_ddl : t -> R.Update.ddl -> unit
(** An [S_ddl] event: apply a schema change to the base relations (see
    {!R.Evolve}). Raises [R.Evolve.Evolve_error] on invalid changes. *)

val stale_query : t -> R.Query.t -> bool
(** Does the query name a schema (in any slot) that no longer matches the
    current database — i.e. was it staged before a schema change? *)

val answer_query : t -> id:int -> R.Query.t -> R.Bag.t * Storage.Cost.t
(** An [S_qu] event: evaluate against the current state and return the
    answer with its physical cost. Stale queries (see {!stale_query}) are
    answered empty at zero cost rather than evaluated against schemas
    they were not staged for. *)

val io_total : t -> int
(** Cumulative I/Os across all queries answered — the paper's IO metric. *)

val stale_answers : t -> int
(** Queries answered empty as schema-stale since creation. *)

val events : t -> event list
(** The event log, oldest first. *)

val update_count : t -> int
val query_count : t -> int
val pp_event : Format.formatter -> event -> unit
