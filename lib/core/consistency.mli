(** The correctness hierarchy of Section 3.1, decided over recorded state
    sequences.

    [source_states] must be [V[ss_0]; V[ss_1]; …] — the view applied to the
    source state initially and after each update event — and
    [warehouse_states] must be [MV at ws_0; …] — the materialized view
    initially and after each installation. Both sequences come from the
    simulation engine's trace. States compare by bag equality; a check
    costs at most one fingerprint and, barring fingerprint collisions, one
    {!Relational.Bag.equal} per state (see {!Relational.Bag.Classes}). *)

module R := Relational

type report = {
  convergent : bool;
      (** the final warehouse state equals the final source state *)
  weakly_consistent : bool;
      (** every warehouse state equals {e some} source state *)
  consistent : bool;
      (** an order-preserving mapping from warehouse states to value-equal
          source states exists *)
  strongly_consistent : bool;  (** consistent and convergent *)
  complete : bool;
      (** strongly consistent, and every source state appears at the
          warehouse *)
}

val check :
  source_states:R.Bag.t list -> warehouse_states:R.Bag.t list -> report

val strongest_label : report -> string
(** Human-readable name of the strongest property satisfied. *)

val pp : Format.formatter -> report -> unit
