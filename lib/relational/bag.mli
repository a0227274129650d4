(** Signed, ℤ-counted bags of tuples — the paper's "relations with signed
    tuples" (Section 4.1).

    Each tuple maps to a net replication count: a positive count [n] stands
    for [n] copies of the tuple with a [+] sign, a negative count for copies
    with a [−] sign. Base relations and materialized views are non-negative
    bags; query answers and view deltas may carry negative counts.

    The paper defines [r1 + r2 = (pos(r1) ∪ pos(r2)) − (neg(r1) ∪ neg(r2))]
    and states that [+] and [−] are commutative and associative. Truncating
    multiset difference would break associativity, so — consistently with
    the replication-count reading — we use ℤ counts, under which all the
    stated laws hold exactly. {!diff_truncated} is provided separately for
    the classic truncating difference.

    Representation: tuples are indexed by their hash, so {!add}, {!count}
    and {!mem} cost O(1) expected tuple comparisons. Consequently
    {!fold} and {!iter} enumerate in unspecified (hash) order —
    deterministic for a given bag, but not sorted. Callers that need the
    canonical tuple order (printing, serialization, picking a
    deterministic representative) must go through {!to_counted_list},
    {!to_list} or {!pp}, which sort by [Tuple.compare]. *)

type t

val empty : t
val is_empty : t -> bool

val count : t -> Tuple.t -> int
(** Net replication count of a tuple (0 when absent). *)

val add : ?count:int -> Tuple.t -> t -> t
(** [add ~count t b] adds [count] net copies (default 1; may be negative).
    Entries that reach net 0 are removed. *)

val remove : ?count:int -> Tuple.t -> t -> t
val singleton : ?count:int -> Tuple.t -> t
val of_list : Tuple.t list -> t

val of_signed_list : (Sign.t * Tuple.t) list -> t
(** Builds a bag from explicitly signed tuples; opposite signs cancel. *)

val plus : t -> t -> t
(** The paper's [+] operator on signed relations. *)

val minus : t -> t -> t
(** The paper's [−] operator: [minus a b = plus a (negate b)]. *)

val negate : t -> t
val scale : int -> t -> t
val apply_sign : Sign.t -> t -> t

val pos_part : t -> t
(** [pos(r)]: the positively signed tuples, as a non-negative bag. *)

val neg_part : t -> t
(** [neg(r)]: the negatively signed tuples, as a non-negative bag (counts
    are the magnitudes). *)

val union : t -> t -> t
(** Plain bag union of the positive parts (the paper's [∪]). *)

val diff_truncated : t -> t -> t
(** Classic truncating multiset difference of the positive parts. *)

val cardinality : t -> int
(** Total number of signed tuple copies, [Σ |count|] — what the transfer
    cost model charges for. *)

val net_cardinality : t -> int
(** [Σ count]; for a non-negative bag this is the number of tuples. *)

val distinct_cardinality : t -> int
(** Number of distinct tuples; O(1) — usable for sizing hash tables. *)

val has_negative : t -> bool
(** True when some tuple has net negative count — a materialized view in
    such a state witnesses an over-deletion anomaly. *)

val is_set : t -> bool
(** Every count is exactly 1 (ECAK views with full key coverage are sets). *)

val equal : t -> t -> bool

val fingerprint : t -> int
(** An order-independent digest of the bag's contents, computed in
    O(distinct tuples) from the tuple hashes the bag already holds: equal
    bags have equal fingerprints however they were built. Unequal bags may
    collide — tuples with equal {!Tuple.hash} always do — so a matching
    fingerprint must be confirmed with {!equal}. *)

(** Numbering of bags up to {!equal}: each class is found by fingerprint
    and confirmed by one {!equal} per candidate, and a bag physically equal
    to the one classified last reuses its class without either. *)
module Classes : sig
  type bag := t
  type t

  val create : unit -> t

  val add : t -> bag -> int
  (** The class of the bag, numbering it [count] first if no earlier bag
      equals it. Classes are [0], [1], … in order of first appearance. *)

  val find : t -> bag -> int
  (** The class of an added bag equal to this one, or [-1]. *)

  val count : t -> int
  (** The number of classes. *)
end

val compare : t -> t -> int
val mem : Tuple.t -> t -> bool

val fold : (Tuple.t -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Enumeration order is unspecified (hash order); see the module note. *)

val iter : (Tuple.t -> int -> unit) -> t -> unit
(** Like {!fold}, enumeration order is unspecified (hash order). *)

val filter : (Tuple.t -> bool) -> t -> t
(** Physically the argument when every tuple passes. *)

val map_tuples : (Tuple.t -> Tuple.t) -> t -> t

val to_list : t -> (Sign.t * Tuple.t) list
(** Expansion into one signed entry per copy, in tuple order. *)

val to_counted_list : t -> (Tuple.t * int) list
(** One entry per distinct tuple with its net count, in tuple order. *)

val byte_size : t -> int
(** [Σ |count| · byte_size tuple]; used for measured transfer costs. *)

val dedup_to_set : t -> t
(** Keep one copy of every positively counted tuple; ECAK's duplicate
    elimination. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
