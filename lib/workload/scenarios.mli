(** Ready-made evaluation scenarios: Example 6 (the workload every figure
    of Section 6 is computed over) and the keyed two-relation scenario
    used by the ECAK/ECAL ablations, plus the physical catalogs of
    Appendix D's two I/O scenarios. *)

module R := Relational

type scaled = {
  sources : (string * Storage.Catalog.t option * R.Db.t) list;
      (** [(site name, catalog, db)] in site order: s0, s1, … *)
  views : R.View.t list;  (** v{i} = π_{W,Y}(s{i}_r1 ⋈ s{i}_r2) *)
  updates : R.Update.t list;  (** the interleaved global stream *)
}
(** An N-source federation workload for the scaling experiments.
    Declared before {!setup} so the shared [updates] field name keeps
    resolving to [setup] in unannotated client code. *)

type evolving = {
  db : R.Db.t;
  view : R.View.t;
  updates : R.Update.t list;
  ddls : (int * R.Update.ddl) list;
      (** position [p] = fires after the first [p] updates — the engine's
          [?evolution] convention *)
}
(** The online schema-evolution workload: the keyed scenario crossed with
    a DDL schedule. Declared before {!setup} for the same field-shadowing
    reason as {!scaled}. *)

type setup = {
  db : R.Db.t;
  view : R.View.t;
  updates : R.Update.t list;
}

val example6_view : unit -> R.View.t
(** [V = π_{W,Z} (σ_{W>Z} (r1 ⋈ r2 ⋈ r3))]. *)

val example6 : ?round_robin:bool -> Spec.t -> setup

val keyed_view : unit -> R.View.t
(** [VK = π_{W,Y} (r1 ⋈ r2)] with keys W, Y covered — ECAK-eligible. *)

val keyed : Spec.t -> setup

val selfmaintainable_view : unit -> R.View.t
(** [VS = π_{W,Y} (r1 ⋈ r2)] over r1(W KEY, X → r2(X), A) and
    r2(X KEY, Y, B): every update class is warehouse-local, so ECA-SM
    maintains it with zero compensating queries (DESIGN.md §4j). *)

val selfmaintainable : Spec.t -> setup
(** The ECA-SM best case, with an integrity-preserving update stream. *)

val adversarial_view : unit -> R.View.t
(** [VA = π_{W,X,Y} (r1 ⋈ r2)] with no keys and no foreign keys: every
    candidate auxiliary view is a full base copy, so the analyzer
    reports every class [Remote] and ECA-SM is not applicable. *)

val adversarial : Spec.t -> setup
(** The analyzer's worst case — exercises the honest-refusal path. *)

val evolution_ddls : Spec.t -> (int * R.Update.ddl) list
(** Add_column r2.N at k/4, Key_change r1 (key dropped) at k/2,
    Drop_column r2.N at 3k/4. *)

val evolution : Spec.t -> evolving
(** Schema-aware stream generation: the generator evolves a live database
    alongside the stream, so inserts always match the current arity of r2
    and deletes pick currently existing (backfilled) tuples. *)

val fault_profiles : (string * Messaging.Fault.profile) list
(** The delivery-fault matrix the reliability experiments sweep: clean,
    each fault class in isolation, and the combined "chaos" profile. *)

val chaos_profile : Messaging.Fault.profile
(** Loss + duplication + delay + reordering at once. *)

val scaled :
  ?c:int ->
  ?updates_per_source:int ->
  ?insert_ratio:float ->
  ?skew:float ->
  ?seed:int ->
  n:int ->
  unit ->
  scaled
(** [scaled ~n ()] builds [n] autonomous sources, each owning a keyed
    two-relation schema s{i}_r1(W KEY, X), s{i}_r2(X, Y KEY) of [c]
    tuples apiece, one ECAK/ECAL-eligible view per source, and a global
    stream of [n * updates_per_source] updates whose source index is
    drawn Zipf([skew]) — [skew = 0] spreads the stream uniformly, higher
    values concentrate it on source 0, the hot edge. Inserts allocate
    fresh key values, deletes pick existing tuples of the evolving
    state. Deterministic from [seed]; per-source databases use
    independent streams so growing [n] never changes existing sources'
    contents. *)

val catalog_scenario1 : ?k_per_block:int -> unit -> Storage.Catalog.t
(** Indexed, ample memory; the exact Example-6 index set. *)

val catalog_scenario2 : ?k_per_block:int -> unit -> Storage.Catalog.t
(** No indexes, three-block nested loops. *)
