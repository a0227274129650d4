(* A realistic keyed scenario, driven entirely through the script parser:
   a retail data warehouse materializing open orders of western-region
   customers over a legacy order-entry system. The view projects the keys
   of both base relations, so ECA-Key applies: deletions (order
   cancellations, customer churn) are handled at the warehouse without
   ever querying the source.

   Run with: dune exec examples/retail_warehouse.exe *)

module R = Relational

let script_text =
  {|
TABLE customers (cid INT KEY, region TEXT);
TABLE orders (oid INT KEY, cid INT, amount INT);

VIEW west_orders AS
  SELECT orders.oid, customers.cid, orders.amount
  FROM orders, customers
  WHERE orders.cid = customers.cid AND customers.region = 'west';

-- initial load
INSERT INTO customers VALUES (1, 'west');
INSERT INTO customers VALUES (2, 'east');
INSERT INTO customers VALUES (3, 'west');
INSERT INTO orders VALUES (100, 1, 250);
INSERT INTO orders VALUES (101, 2, 120);
INSERT INTO orders VALUES (102, 3, 999);

UPDATES;
-- a burst of activity at the source, racing the warehouse's queries
INSERT INTO orders VALUES (103, 1, 75);
DELETE FROM orders VALUES (102, 3, 999);     -- cancellation
INSERT INTO customers VALUES (4, 'west');
INSERT INTO orders VALUES (104, 4, 410);
DELETE FROM customers VALUES (2, 'east');    -- churn (and order 101 orphaned)
DELETE FROM orders VALUES (101, 2, 120);
|}

let () =
  let script = R.Parser.parse_script script_text in
  let db = R.Script.initial_db script in
  let view = List.hd script.R.Script.views in
  Format.printf "%a@." R.Viewdef.pp view;
  Format.printf "ECAK eligible: %b@.@."
    (match R.Viewdef.as_simple view with
     | Some v -> R.View.covers_all_keys v
     | None -> false);

  let run algorithm schedule =
    Core.Engine.run ~schedule
      ~creator:(Core.Registry.creator_exn algorithm)
      ~sites:[ Core.Engine.site ~name:"source" db ]
      ~views:[ view ] ~updates:script.R.Script.updates ()
  in

  (* All six updates hit the order-entry system before any warehouse
     query is answered — lunch-hour traffic. *)
  List.iter
    (fun algorithm ->
      let result = run algorithm Core.Scheduler.Worst_case in
      let m = result.Core.Engine.metrics in
      let report = List.assoc "west_orders" result.Core.Engine.reports in
      Format.printf "%-8s -> %a@." algorithm R.Bag.pp
        (List.assoc "west_orders" result.Core.Engine.final_mvs);
      Format.printf
        "         %d queries, %d answer tuples, %d source IO; %s@.@."
        m.Core.Metrics.queries_sent m.Core.Metrics.answer_tuples
        m.Core.Metrics.source_io
        (Core.Consistency.strongest_label report))
    [ "eca"; "eca-key"; "eca-local"; "sc" ];

  Format.printf
    "ECA-Key answered the three deletions locally via key-delete and sent@.\
     no compensating queries for the inserts - fewer round trips to the@.\
     legacy system for the same strongly consistent view.@."
