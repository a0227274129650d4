(** Queries (Equation 4.2 of the paper): signed sums of terms,
    [Q = Σᵢ Tᵢ].

    Queries are what the warehouse ships to the source; compensating
    queries subtract substituted copies of pending queries, which shows up
    here as term negation. *)

type t = Term.t list

val empty : t
val is_empty : t -> bool

val of_view : View.t -> t
(** The full view definition as a query — what RV sends to recompute. *)

val of_terms : Term.t list -> t
val terms : t -> Term.t list

val negate : t -> t
val plus : t -> t -> t

val minus : t -> t -> t
(** [minus a b = a + (−b)] — note this is a signed sum, not set
    difference. *)

val subst : t -> Update.t -> t
(** The paper's [Q⟨U⟩]: substitute [U]'s signed tuple into every term;
    terms that already substitute [U]'s relation, or that never mention it,
    vanish. *)

val subst_all : t -> Update.t list -> t
(** [Q⟨U1, …, Uk⟩], left to right; empty whenever two updates hit the same
    relation in a term. *)

val compensate : fold:((t -> t -> t) -> t -> 'p -> t) -> t -> Update.t -> 'p -> t
(** [compensate ~fold q u pending] is [q − q1⟨u⟩ − … − qn⟨u⟩], where
    [fold] visits the queries [q1 … qn] held in [pending] in that order
    ([~fold:List.fold_left] for a list). Term for term the
    [minus]/[subst] fold (same terms, same order), built in one pass:
    linear in the output instead of quadratic in the number of pending
    queries, and the pending queries are never copied. *)

val view_delta : View.t -> Update.t -> t
(** [V⟨U⟩] — the incremental-maintenance query of Algorithm 5.1. *)

val split_local : t -> t * t
(** [(local, remote)]: terms whose slots are all literal tuples need no
    base data and are evaluated at the warehouse; the rest go to the
    source. The maintenance algorithms use [Eval.split_local], which
    also evaluates the local part; this is its specification. *)

val simplify : t -> t
(** Cancel [T]/[−T] pairs. Sound because queries are signed sums
    ([T + (−T) = 0] under ℤ-counted bag semantics); saves both transfer
    and source I/O on deeply compensated queries. *)

val base_relations : t -> string list
val term_count : t -> int

val byte_size : t -> int
(** Approximate wire size of the query message. *)

val equal : t -> t -> bool

val signature : t -> int
(** Order-insensitive digest over the signed term multiset (commutative
    combine of {!Term.signature}): two structurally equal maintenance
    queries share a signature however their terms were ordered. A digest
    — candidates must be confirmed with {!equal} before sharing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
