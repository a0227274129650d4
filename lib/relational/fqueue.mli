(** A persistent FIFO queue as a front/back list pair — O(1) amortized
    push/pop, versus the O(n) of [xs @ [x]] appends. Used for message
    channels and for ECA's unanswered-query sequence, both of which grow
    with the run and made list appends quadratic over a workload. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> 'a -> 'a t
(** Enqueue at the back. *)

val pop : 'a t -> ('a * 'a t) option
(** Dequeue the oldest element. *)

val peek : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Oldest first. *)

val of_list : 'a list -> 'a t

val filter : ('a -> bool) -> 'a t -> 'a t
(** Keeps relative order; O(n). *)

val remove_first : ('a -> bool) -> 'a t -> 'a t
(** Drop the oldest element satisfying the predicate, keeping the rest
    in order. O(1) amortized when that element is the oldest of all —
    answers on a FIFO edge come back in query order — and O(n)
    otherwise. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Keeps relative order; O(n). [f]'s side effects run oldest to
    newest. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest-to-newest fold without materializing [to_list]. *)

val iter : ('a -> unit) -> 'a t -> unit
val exists : ('a -> bool) -> 'a t -> bool
