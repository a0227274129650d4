(** Execution traces: the atomic events of one simulated run, recorded
    with everything the Section-3 consistency checkers need.

    Source states are snapshotted as the view contents [V[ss_i]] after
    every [S_up] event; warehouse states are the installed materialized
    views. Both include the initial state ([ss_0] / [ws_0]). *)

module R := Relational

type entry =
  | Source_update of {
      updates : R.Update.t list;
          (** the update — or the whole batch — this atomic event executed *)
      source_views : (string * R.Bag.t) list;
          (** V[ss] per view, after the event *)
    }
  | Source_answer of {
      gid : int;
      answer : R.Bag.t;
      cost : Storage.Cost.t;
    }
  | Warehouse_note of {
      updates : R.Update.t list;
      queries : (int * R.Query.t) list;
      installs : (string * R.Bag.t list) list;
          (** local algorithms (ECAK deletes, ECAL, SC) install at W_up *)
    }
  | Warehouse_answer of {
      gid : int;
      installs : (string * R.Bag.t list) list;
    }
  | Quiesce_probe of {
      queries : (int * R.Query.t) list;
      installs : (string * R.Bag.t list) list;
    }
  | Source_ddl of {
      ddl : R.Update.ddl;
      source_views : (string * R.Bag.t) list;
          (** the affected views' contents under their {e rewritten}
              definitions — a new [ss] only for those views *)
    }
  | Warehouse_ddl of {
      ddl : R.Update.ddl;
      rebuilt : string list;
          (** views whose instances were swapped for refreshing ones *)
      queries : (int * R.Query.t) list;
      installs : (string * R.Bag.t list) list;
    }

type t

val create : initial_views:(string * R.Bag.t) list -> t
val record : t -> entry -> unit
val entries : t -> entry list
val initial_views : t -> (string * R.Bag.t) list

val source_states : t -> string -> R.Bag.t list
(** [V[ss_0]; V[ss_1]; …] for the named view — input to the checkers.
    {!record} files each state under its view as it arrives, so this
    reads only the view's own states, never the whole trace. *)

val warehouse_states : t -> string -> R.Bag.t list
(** [MV at ws_0; …] for the named view, read like {!source_states}. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit
