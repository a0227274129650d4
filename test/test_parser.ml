(* The script/view/predicate/tuple text parsers. *)

open Helpers
module R = Relational

let sample_script =
  {|
-- Example 2 of the paper as a script
TABLE r1 (W INT KEY, X INT);
TABLE r2 (X INT, Y INT);
VIEW v AS SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X;
INSERT INTO r1 VALUES (1, 2);
UPDATES;
INSERT INTO r2 VALUES (2, 3);
INSERT INTO r1 VALUES (4, 2);
|}

let parses_script () =
  let s = R.Parser.parse_script sample_script in
  check_int "two tables" 2 (List.length s.R.Script.tables);
  check_int "one view" 1 (List.length s.R.Script.views);
  check_int "one initial insert" 1 (List.length s.R.Script.initial);
  check_int "two updates" 2 (List.length s.R.Script.updates);
  let db = R.Script.initial_db s in
  check_bag "initial load applied" (bag [ [ 1; 2 ] ]) (R.Db.contents db "r1")

let update_numbering () =
  let s = R.Parser.parse_script sample_script in
  Alcotest.(check (list int))
    "updates numbered from 1" [ 1; 2 ]
    (List.map (fun (u : R.Update.t) -> u.R.Update.seq) s.R.Script.updates)

let key_declaration () =
  let s = R.Parser.parse_script sample_script in
  match R.Script.table s "r1" with
  | Some schema -> Alcotest.(check (list string)) "key" [ "W" ] schema.R.Schema.key
  | None -> Alcotest.fail "r1 missing"

let view_resolution () =
  let s = R.Parser.parse_script sample_script in
  match Option.bind (R.Script.view s "v") R.Viewdef.as_simple with
  | Some v ->
    Alcotest.(check (list string))
      "projection" [ "r1.W" ]
      (List.map R.Attr.to_string v.R.View.proj)
  | None -> Alcotest.fail "view v missing or not simple"

let comments_and_whitespace () =
  let s =
    R.Parser.parse_script
      "TABLE t (A INT); -- trailing comment\n-- whole line\nVIEW w AS SELECT A FROM t;"
  in
  check_int "table parsed" 1 (List.length s.R.Script.tables)

let standalone_view () =
  let vd =
    R.Parser.parse_view ~tables:[ r1; r2 ]
      "VIEW z AS SELECT W, Y FROM r1, r2 WHERE r1.X = r2.X AND W > 3;"
  in
  Alcotest.(check string) "name" "z" vd.R.Viewdef.name;
  match R.Viewdef.as_simple vd with
  | Some v ->
    check_int "cond has two conjuncts" 2
      (List.length (R.Predicate.conjuncts v.R.View.cond))
  | None -> Alcotest.fail "expected a simple view"

let compound_view_parsing () =
  let vd =
    R.Parser.parse_view ~tables:[ r1; r2 ]
      "VIEW u AS SELECT W FROM r1 UNION SELECT X FROM r2 EXCEPT SELECT W \
       FROM r1 WHERE W > 5;"
  in
  check_int "three parts" 3 (List.length vd.R.Viewdef.parts);
  check_bool "not simple" false (R.Viewdef.is_simple vd);
  let signs = List.map (fun (s, _) -> R.Sign.to_string s) vd.R.Viewdef.parts in
  Alcotest.(check (list string)) "signs" [ "+"; "+"; "-" ] signs;
  (* mixed arity rejected *)
  match
    R.Parser.parse_view ~tables:[ r1 ]
      "VIEW bad AS SELECT W FROM r1 UNION SELECT W, X FROM r1;"
  with
  | exception R.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected arity rejection"

let compound_view_evaluates () =
  let s =
    R.Parser.parse_script
      "TABLE a (N INT);\nTABLE b (N INT);\nVIEW u AS SELECT N FROM a UNION \
       SELECT N FROM b EXCEPT SELECT N FROM a WHERE N > 5;\nINSERT INTO a \
       VALUES (1);\nINSERT INTO a VALUES (9);\nINSERT INTO b VALUES (2);"
  in
  let db = R.Script.initial_db s in
  let vd = Option.get (R.Script.view s "u") in
  check_bag "union minus filtered part"
    (bag [ [ 1 ]; [ 2 ] ])
    (R.Viewdef.eval db vd)

let adhoc_select () =
  let v =
    R.Parser.parse_select ~tables:[ r1; r2 ]
      "SELECT W, Y FROM r1, r2 WHERE r1.X = r2.X"
  in
  let db = db_of [ (r1, [ [ 1; 2 ] ]); (r2, [ [ 2; 7 ] ]) ] in
  check_bag "ad-hoc select evaluates" (bag [ [ 1; 7 ] ]) (R.Eval.view db v);
  (* trailing semicolon tolerated, trailing junk not *)
  ignore (R.Parser.parse_select ~tables:[ r1 ] "SELECT W FROM r1;");
  match R.Parser.parse_select ~tables:[ r1 ] "SELECT W FROM r1; garbage" with
  | exception R.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected a parse failure"

let predicate_precedence () =
  (* AND binds tighter than OR. *)
  let p = R.Parser.parse_predicate "a = 1 OR b = 2 AND c = 3" in
  match p with
  | R.Predicate.Or (_, R.Predicate.And (_, _)) -> ()
  | _ -> Alcotest.failf "unexpected shape: %s" (R.Predicate.to_string p)

let tuple_literals () =
  let t = R.Parser.parse_tuple "(1, 2.5, 'ab c', TRUE, -7)" in
  check_int "arity" 5 (R.Tuple.arity t);
  Alcotest.check value_testable "string" (Str "ab c") (R.Tuple.get t 2);
  Alcotest.check value_testable "bool" (Bool true) (R.Tuple.get t 3);
  Alcotest.check value_testable "negative int" (Int (-7)) (R.Tuple.get t 4)

let error_cases () =
  let fails src =
    match R.Parser.parse_script src with
    | exception R.Parser.Parse_error _ -> ()
    | exception R.View.View_error _ -> ()
    | _ -> Alcotest.failf "expected a parse failure for %S" src
  in
  fails "TABLE t (A BLOB);";
  fails "VIEW v AS SELECT A FROM missing;";
  fails "INSERT INTO t VALUES (1";
  fails "DELETE FROM t VALUES (1);" (* deletes only in UPDATES *);
  fails "UPDATES; UPDATES;";
  fails "TABLE t (A INT); UPDATES; TABLE u (B INT);"

let unterminated_string () =
  match R.Parser.parse_tuple "('abc)" with
  | exception R.Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected failure"

let roundtrip_example2 () =
  (* The parsed script replayed through the simulator reproduces the
     Example 2 anomaly. *)
  let s = R.Parser.parse_script sample_script in
  let db = R.Script.initial_db s in
  let result =
    Core.Engine.run ~schedule:(explicit "AWAWSWSW")
      ~creator:(Core.Registry.creator_exn "basic")
      ~sites:[ source_site db ]
      ~views:s.R.Script.views ~updates:s.R.Script.updates ()
  in
  check_bag "anomalous view from script"
    (bag [ [ 1 ]; [ 4 ]; [ 4 ] ])
    (final_mv result "v")

(* Round trip: a printed view definition re-parses to an equal view. The
   generator covers random relation subsets, projections, and conditions
   over columns and small integer constants. *)
let roundtrip_view_gen =
  QCheck.Gen.(
    let schemas = [| r1; r2; r3 |] in
    let* mask = int_range 1 7 in
    let sources =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list schemas)
    in
    let cols =
      List.concat_map
        (fun (s : R.Schema.t) ->
          List.map
            (fun c -> R.Attr.qualified s.R.Schema.name c)
            (R.Schema.attr_names s))
        sources
    in
    let* proj_mask = int_range 1 ((1 lsl List.length cols) - 1) in
    let proj = List.filteri (fun i _ -> proj_mask land (1 lsl i) <> 0) cols in
    let operand =
      let* use_col = bool in
      if use_col then
        let* i = int_bound (List.length cols - 1) in
        return (R.Predicate.Col (List.nth cols i))
      else
        let* n = int_range (-4) 9 in
        return (R.Predicate.Const (R.Value.Int n))
    in
    let conjunct =
      let* cmp = oneofl R.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] in
      let* a = operand in
      let* b = operand in
      return (R.Predicate.Cmp (cmp, a, b))
    in
    let* n_conj = int_bound 3 in
    let* conjs = list_size (return n_conj) conjunct in
    return
      (R.View.make ~name:"roundtrip" ~proj
         ~cond:(R.Predicate.conj conjs)
         sources))

let roundtrip_property =
  QCheck.Test.make ~name:"printed views re-parse to themselves" ~count:300
    (QCheck.make ~print:R.View.to_string roundtrip_view_gen)
    (fun view ->
      let printed = R.View.to_string view ^ ";" in
      match
        R.Viewdef.as_simple
          (R.Parser.parse_view ~tables:[ r1; r2; r3 ] printed)
      with
      | Some reparsed -> R.View.equal view reparsed
      | None -> false)

(* Pin the parse of a committed example script statement by statement —
   a regression net for the accumulate-reversed rewrite of
   [parse_script]'s loop, which must keep every section in source order. *)
let pins_example_script_order () =
  let path =
    List.find Sys.file_exists
      [
        Filename.concat "golden" "union.sql"; "test/golden/union.sql";
      ]
  in
  let ic = open_in_bin path in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let s = R.Parser.parse_script src in
  Alcotest.(check (list string))
    "tables in source order" [ "a"; "b" ]
    (List.map (fun (sc : R.Schema.t) -> sc.R.Schema.name) s.R.Script.tables);
  Alcotest.(check (list string))
    "views in source order" [ "u" ]
    (List.map (fun (v : R.Viewdef.t) -> v.R.Viewdef.name) s.R.Script.views);
  Alcotest.(check (list string))
    "initial load in source order"
    [ "+a[1,5]"; "+a[2,20]"; "+b[3,0]" ]
    (List.map
       (fun (u : R.Update.t) ->
         (match u.R.Update.kind with
          | R.Update.Insert -> "+"
          | R.Update.Delete -> "-")
         ^ u.R.Update.rel
         ^ R.Tuple.to_string u.R.Update.tuple)
       s.R.Script.initial);
  Alcotest.(check (list string))
    "update stream in source order, numbered from 1"
    [ "1:+b[1,1]"; "2:-a[1,5]" ]
    (List.map
       (fun (u : R.Update.t) ->
         Printf.sprintf "%d:%s%s%s" u.R.Update.seq
           (match u.R.Update.kind with
            | R.Update.Insert -> "+"
            | R.Update.Delete -> "-")
           u.R.Update.rel
           (R.Tuple.to_string u.R.Update.tuple))
       s.R.Script.updates)

let suite =
  [
    Alcotest.test_case "parses a full script" `Quick parses_script;
    Alcotest.test_case "example script parse order (pinned)" `Quick
      pins_example_script_order;
    Alcotest.test_case "updates are numbered" `Quick update_numbering;
    Alcotest.test_case "KEY declarations" `Quick key_declaration;
    Alcotest.test_case "view resolution from script" `Quick view_resolution;
    Alcotest.test_case "comments and whitespace" `Quick comments_and_whitespace;
    Alcotest.test_case "standalone view" `Quick standalone_view;
    Alcotest.test_case "compound view parsing" `Quick compound_view_parsing;
    Alcotest.test_case "compound view evaluation" `Quick
      compound_view_evaluates;
    Alcotest.test_case "ad-hoc SELECT" `Quick adhoc_select;
    Alcotest.test_case "predicate precedence" `Quick predicate_precedence;
    Alcotest.test_case "tuple literals" `Quick tuple_literals;
    Alcotest.test_case "error cases" `Quick error_cases;
    Alcotest.test_case "unterminated string" `Quick unterminated_string;
    Alcotest.test_case "script roundtrip reproduces Example 2" `Quick
      roundtrip_example2;
  ]
  @ [ QCheck_alcotest.to_alcotest roundtrip_property ]
