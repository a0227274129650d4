(** The naive cross-source maintenance strategy — and why it fails.

    For a view spanning several sources, each update triggers full
    fetches of every other base relation (identity queries routed to
    their owners); the deltas are computed over the assembled snapshot.
    Because the fetches are answered at different times at different
    autonomous sites, the snapshot may correspond to {e no} global state
    that ever existed: under racing updates the algorithm violates even
    weak consistency, which is the concrete content of Section 7's
    warning that views over multiple sources "require some intricate
    algorithms" (historically, the Strobe family).

    Quiescent interleavings (every update drains before the next) keep it
    convergent — the same pattern as Algorithm 5.1 in the single-source
    setting. Registered as ["fetch-join"]; {!Engine.run} only hosts it
    behind [~allow_cross_source:true]. *)

module R := Relational

exception Not_applicable of string

type t

val create : Algorithm.Config.t -> t
val mv : t -> R.Bag.t
val quiescent : t -> bool
val on_update : t -> R.Update.t -> Algorithm.outcome
val on_answer : t -> id:int -> R.Bag.t -> Algorithm.outcome

val instance : Algorithm.creator
