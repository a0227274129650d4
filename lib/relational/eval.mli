(** Logical evaluation of terms, queries and views against a database
    instance.

    Terms are executed as left-to-right joins over compiled {!Plan}s:
    top-level equality conjuncts between attributes of different slots run
    as hash joins (built on the smaller side, keyed by explicit [Value]
    hashing), residual conjuncts are applied as position-resolved compiled
    filters as soon as their columns are bound, and replication counts
    multiply across slots — which realizes the paper's sign-product rule
    through ℤ-counted bags. The result of evaluating a query is the signed
    sum of its terms' results. Plans are cached per term skeleton, so
    repeated evaluation of a view and of its delta terms compiles once.

    This evaluator defines {e what} an answer is; the physical layer in
    [lib/storage] independently accounts for {e how many I/Os} the source
    spends producing it. *)

exception Eval_error of string

val run_plan : Plan.t -> contents:(int -> Bag.t) -> sign:int -> Bag.t
(** Execute a compiled plan, fetching each slot's contents by index. The
    [contents] callback is consulted lazily — never for slots after the
    intermediate result has become empty — and [sign] multiplies every
    output count (the term's sign factor). [term] below and the staged
    delta programs ({!Delta_program}) both run through this one executor,
    so their results agree by construction. *)

val term : Db.t -> Term.t -> Bag.t
(** Evaluate one signed term. Literal (substituted-tuple) slots contribute
    their single signed tuple regardless of the database contents. *)

val query : Db.t -> Query.t -> Bag.t
(** [Q[ss]]: the signed sum of the term results. *)

val view : Db.t -> View.t -> Bag.t
(** [V[ss]]: the full view contents at a source state — what the
    consistency checkers compare against, and what RV's recompute query
    returns. *)

val literal_query : Query.t -> Bag.t
(** Evaluate a query whose terms have no base-relation slots; needs no
    database. Each term joins a single row; consecutive terms with a
    physically shared skeleton (as substitution leaves them) share one
    plan lookup.
    @raise Eval_error if a term still references a base relation. *)

val split_local : Query.t -> Bag.t * Query.t
(** [(local answer, remote query)]: the literal-only terms evaluated by
    {!literal_query}, and the remaining terms with T/−T pairs cancelled.
    The remote query equals [snd (Query.split_local (Query.simplify q))]
    term for term and the local answer equals that split's evaluated
    local part as a ℤ-bag, but only the remote terms are simplified. *)

val naive_term : Db.t -> Term.t -> Bag.t
(** Reference semantics: full cross product of the slots, condition
    evaluated by scanning the layout per row, then projection. Exists as
    ground truth for the planned evaluator's equivalence property tests —
    never use it on anything large. *)

val naive_query : Db.t -> Query.t -> Bag.t
