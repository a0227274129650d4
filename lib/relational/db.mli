(** A database instance: named base relations with their schemas and
    current (non-negative) bag contents.

    The source site owns one of these; the SC (store copies) algorithm
    keeps a replica at the warehouse. Values are immutable — applying an
    update returns a new instance, which is what lets the simulation engine
    snapshot source states for the Section-3 consistency checkers at zero
    bookkeeping cost. *)

type t

exception Db_error of string

val empty : t

val add_relation : ?contents:Bag.t -> t -> Schema.t -> t
(** @raise Db_error on duplicate names, arity mismatches, negative counts
    in [contents], contents violating the schema's declared key, or a
    declared foreign key left dangling by [contents] (checked in both
    directions whenever referencing and referenced relation are both
    present, whatever order they were added in). *)

val of_list : (Schema.t * Bag.t) list -> t

val schema : t -> string -> Schema.t
val schema_opt : t -> string -> Schema.t option
val contents : t -> string -> Bag.t
val mem : t -> string -> bool
val relation_names : t -> string list
val schemas : t -> Schema.t list
val set_contents : t -> string -> Bag.t -> t

val apply : ?strict:bool -> t -> Update.t -> t
(** Executes one update atomically. With [strict] (default), deleting a
    tuple that is not present raises [Db_error]; with [~strict:false] the
    delete is a no-op on absent tuples. Inserts that would put two tuples
    with equal declared-key values into a relation raise [Db_error]
    regardless of strictness — ECAK's correctness depends on declared keys
    being real. Inserts whose declared foreign keys find no referenced
    tuple (when the referenced relation is present) are rejected the same
    way — ECA-SM derives join partners from inserted tuples assuming
    referential integrity. Deletes are never FK-checked: a reference may
    dangle transiently, and any insert relying on the gap fails then. *)

val apply_all : ?strict:bool -> t -> Update.t list -> t

val total_tuples : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
