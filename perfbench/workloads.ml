(* The benchmark's three workloads, built from a seed alone. Each is one
   call of [Core.Engine.run] over clean edges, no [?shard] pool, one
   domain; LEDGER.md records why each was chosen. *)

module R = Relational
module W = Workload

type t = {
  sites : Core.Engine.site_spec list;
  views : R.Viewdef.t list;
  updates : R.Update.t list;
  creator : Core.Algorithm.creator;
  schedule : Core.Scheduler.policy;
  share_deltas : bool;
}

let names = [ "grow"; "wide"; "catalog" ]

(* Stream lengths of the measured runs. [~small] gives the tiny
   instances the benchmark's own tests replay. *)
let grow_per_source ~small = if small then 3 else 200
let wide_per_source ~small = if small then 2 else 100
let catalog_updates ~small = if small then 12 else 200

let of_scaled ~schedule (s : W.Scenarios.scaled) =
  {
    sites =
      List.map
        (fun (site, catalog, db) -> Core.Engine.site ?catalog ~name:site db)
        s.W.Scenarios.sources;
    views = List.map R.Viewdef.simple s.W.Scenarios.views;
    updates = s.W.Scenarios.updates;
    creator = Core.Registry.creator_exn "eca";
    schedule;
    share_deltas = false;
  }

(* Relations and views grow for the whole run (3 inserts per delete). *)
let grow ~small seed =
  of_scaled ~schedule:Core.Scheduler.Best_case
    (W.Scenarios.scaled ~n:10 ~c:200 ~insert_ratio:0.75 ~skew:0.
       ~updates_per_source:(grow_per_source ~small) ~seed ())

(* Flat relations over 64 edges, events interleaved at random. *)
let wide ~small seed =
  of_scaled ~schedule:(Core.Scheduler.Random seed)
    (W.Scenarios.scaled ~n:64 ~c:50 ~insert_ratio:0.5
       ~updates_per_source:(wide_per_source ~small) ~seed ())

(* The 4 projections x 4 selection thresholds on r1.W of the catalog
   workload. [Catalog.auto_rung] puts "keys" on eca-key, "y" and "xy" on
   eca-local and "x" on eca-sm. Three quarters of the (view, update)
   pairs are on the compensating rungs, so the lag quantiles sit inside
   one mode of the lag distribution rather than on the edge between the
   eca-sm mode and the compensating one. *)
let catalog_projections =
  let uq = R.Attr.unqualified and q = R.Attr.qualified in
  [
    ("keys", [ uq "W"; uq "Y" ]);
    ("y", [ uq "Y" ]);
    ("xy", [ q "r2" "X"; uq "Y" ]);
    ("x", [ q "r1" "X" ]);
  ]

let catalog_entries ~c =
  List.concat_map
    (fun (pname, proj) ->
      List.map
        (fun k ->
          let t = k * c / 4 in
          let name = Printf.sprintf "%s_w%d" pname t in
          Core.Catalog.entry
            (R.Viewdef.simple
               (R.View.natural_join ~name
                  ~extra_cond:
                    R.Predicate.(Cmp (Ge, col "r1.W", int t))
                  ~proj
                  [ W.Generator.keyed_r1; W.Generator.keyed_r2 ])))
        [ 0; 1; 2; 3 ])
    catalog_projections

let catalog ~small seed =
  let c = 200 in
  let spec =
    W.Spec.make ~c ~insert_ratio:0.5 ~k_updates:(catalog_updates ~small) ~seed
      ()
  in
  let db = W.Generator.keyed_db spec in
  let entries = catalog_entries ~c in
  {
    sites = [ Core.Engine.site ~name:"source" db ];
    views = Core.Catalog.views entries;
    updates = W.Generator.keyed_updates spec ~db;
    creator = Core.Catalog.creator entries;
    schedule = Core.Scheduler.Random seed;
    share_deltas = true;
  }

let make ?(small = false) name seed =
  match name with
  | "grow" -> grow ~small seed
  | "wide" -> wide ~small seed
  | "catalog" -> catalog ~small seed
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (known: %s)" other
         (String.concat ", " names))

(* The untraced run every end-to-end metric is measured on. *)
let run w =
  Core.Engine.run ~schedule:w.schedule ~share_deltas:w.share_deltas
    ~oracle:Core.Engine.Incremental ~creator:w.creator ~sites:w.sites
    ~views:w.views ~updates:w.updates ()
