(** The warehouse's view catalog: N SPJ views registered together, each
    with its own maintenance-algorithm rung (SC / ECA / ECAK / ECAL …,
    named by {!Registry} keys). The catalog is the registration-time
    half of the multi-view warehouse; {!Warehouse} drives the per-view
    COLLECT/UQS lifecycles and — with [~share:true] — the shared-delta
    (MQO) maintenance across them (DESIGN.md §4h). *)

module R := Relational

exception Catalog_error of string

type entry = {
  view : R.Viewdef.t;
  algo : string;  (** a {!Registry} key *)
  window : Window.spec option;
      (** when set, the view is registered as a trailing-k-partition
          (windowed) view — see {!Window} *)
}

val auto_rung : R.Viewdef.t -> string
(** The rung ladder, cheapest round trips first: ["eca-key"] when the
    view projects a declared key of every base relation, ["eca-sm"] when
    the self-maintainability analysis makes every update class locally
    answerable (and not already by literal evaluation alone),
    ["eca-local"] when at least one deletion class is autonomously
    computable, ["eca"] otherwise. SC is never auto-chosen — full base
    copies are a policy decision. *)

val entry : ?algo:string -> ?window:Window.spec -> R.Viewdef.t -> entry
(** A catalog entry; without [?algo] the rung is {!auto_rung}. A
    [?window] registers the view as windowed and is validated eagerly.
    @raise Catalog_error on an unknown algorithm key.
    @raise Window.Window_error on an invalid window spec. *)

val views : entry list -> R.Viewdef.t list
val algorithms : entry list -> (string * string) list

val windows : entry list -> (string * Window.spec) list
(** The windowed entries as [(view name, spec)] pairs, for
    {!Engine.run}'s [?windows]. A catalog run passes
    [~creator:(creator es) ~views:(views es) ~windows:(windows es)]. *)

val creator : entry list -> Algorithm.creator
(** One creator dispatching on the view's name — what
    {!Engine.run}/{!Warehouse.of_creator} consume. Checked eagerly:
    duplicate view names and unknown algorithm keys fail here, not at
    first dispatch.
    @raise Catalog_error on an empty or ambiguous catalog. *)
