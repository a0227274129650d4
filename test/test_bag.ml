(* Signed-bag unit tests plus qcheck laws: the algebraic properties of
   Section 4.1 that the compensation scheme relies on. *)

open Helpers
module R = Relational

let t1 = R.Tuple.ints [ 1 ]
let t2 = R.Tuple.ints [ 2 ]

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let counts () =
  let b = R.Bag.add ~count:2 t1 (R.Bag.singleton ~count:(-1) t2) in
  check_int "positive count" 2 (R.Bag.count b t1);
  check_int "negative count" (-1) (R.Bag.count b t2);
  check_int "absent" 0 (R.Bag.count b (R.Tuple.ints [ 9 ]));
  check_int "cardinality counts copies" 3 (R.Bag.cardinality b);
  check_int "net cardinality" 1 (R.Bag.net_cardinality b);
  check_bool "has negative" true (R.Bag.has_negative b)

let cancellation () =
  let b = R.Bag.add ~count:(-1) t1 (R.Bag.singleton t1) in
  check_bool "opposite signs cancel to empty" true (R.Bag.is_empty b);
  let c = R.Bag.of_signed_list [ (R.Sign.Pos, t1); (R.Sign.Neg, t1) ] in
  check_bool "signed list cancels" true (R.Bag.is_empty c)

let pos_neg_parts () =
  let b = R.Bag.add ~count:(-3) t2 (R.Bag.singleton ~count:2 t1) in
  check_bag "pos part" (R.Bag.singleton ~count:2 t1) (R.Bag.pos_part b);
  check_bag "neg part has magnitudes" (R.Bag.singleton ~count:3 t2)
    (R.Bag.neg_part b)

let plus_minus () =
  let a = R.Bag.singleton ~count:2 t1 in
  let b = R.Bag.add ~count:1 t2 (R.Bag.singleton ~count:(-1) t1) in
  let sum = R.Bag.plus a b in
  check_int "t1 nets to 1" 1 (R.Bag.count sum t1);
  check_int "t2 nets to 1" 1 (R.Bag.count sum t2);
  check_bag "a - a = empty" R.Bag.empty (R.Bag.minus a a)

let truncating_diff () =
  let a = R.Bag.singleton ~count:1 t1 in
  let b = R.Bag.singleton ~count:3 t1 in
  check_bag "truncates at zero" R.Bag.empty (R.Bag.diff_truncated a b);
  check_int "signed minus goes negative" (-2)
    (R.Bag.count (R.Bag.minus a b) t1)

let dedup () =
  let b = R.Bag.add ~count:3 t1 (R.Bag.singleton ~count:(-2) t2) in
  let s = R.Bag.dedup_to_set b in
  check_int "kept one positive copy" 1 (R.Bag.count s t1);
  check_int "dropped negatives" 0 (R.Bag.count s t2);
  check_bool "result is a set" true (R.Bag.is_set s)

let expansion () =
  let b = R.Bag.add ~count:(-1) t2 (R.Bag.singleton ~count:2 t1) in
  Alcotest.(check int) "expanded entries" 3 (List.length (R.Bag.to_list b));
  check_int "byte size weighs copies" ((2 * 4) + 4) (R.Bag.byte_size b)

(* ------------------------------------------------------------------ *)
(* qcheck laws                                                         *)
(* ------------------------------------------------------------------ *)

let tuple_gen =
  QCheck.Gen.(
    map (fun l -> R.Tuple.ints l) (list_size (return 2) (int_bound 3)))

let bag_gen =
  QCheck.Gen.(
    map
      (fun entries ->
        List.fold_left
          (fun b (t, c) -> R.Bag.add ~count:c t b)
          R.Bag.empty entries)
      (list_size (int_bound 8) (pair tuple_gen (int_range (-3) 3))))

let arb_bag = QCheck.make ~print:R.Bag.to_string bag_gen

let arb_bag2 = QCheck.pair arb_bag arb_bag
let arb_bag3 = QCheck.triple arb_bag arb_bag arb_bag

let law name count arb law = QCheck.Test.make ~name ~count arb law

let qcheck_suite =
  List.map QCheck_alcotest.to_alcotest
    [
      law "plus is commutative" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal (R.Bag.plus a b) (R.Bag.plus b a));
      law "plus is associative" 200 arb_bag3 (fun (a, b, c) ->
          R.Bag.equal
            (R.Bag.plus (R.Bag.plus a b) c)
            (R.Bag.plus a (R.Bag.plus b c)));
      law "empty is the identity" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.plus a R.Bag.empty) a);
      law "minus is plus of negation" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal (R.Bag.minus a b) (R.Bag.plus a (R.Bag.negate b)));
      law "negate is an involution" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.negate (R.Bag.negate a)) a);
      law "a - a = 0" 200 arb_bag (fun a ->
          R.Bag.is_empty (R.Bag.minus a a));
      law "paper identity: a + b = (pos a u pos b) - (neg a u neg b)" 200
        arb_bag2 (fun (a, b) ->
          (* with ℤ counts, the signed sum equals the union of positive
             parts minus the union of negative magnitudes *)
          R.Bag.equal (R.Bag.plus a b)
            (R.Bag.minus
               (R.Bag.union (R.Bag.pos_part a) (R.Bag.pos_part b))
               (R.Bag.plus (R.Bag.neg_part a) (R.Bag.neg_part b))));
      law "pos/neg decomposition" 200 arb_bag (fun a ->
          R.Bag.equal a (R.Bag.minus (R.Bag.pos_part a) (R.Bag.neg_part a)));
      law "cardinality is |pos| + |neg|" 200 arb_bag (fun a ->
          R.Bag.cardinality a
          = R.Bag.cardinality (R.Bag.pos_part a)
            + R.Bag.cardinality (R.Bag.neg_part a));
      law "scale distributes over plus" 200 arb_bag2 (fun (a, b) ->
          R.Bag.equal
            (R.Bag.scale 3 (R.Bag.plus a b))
            (R.Bag.plus (R.Bag.scale 3 a) (R.Bag.scale 3 b)));
      law "apply_sign Neg negates" 200 arb_bag (fun a ->
          R.Bag.equal (R.Bag.apply_sign R.Sign.Neg a) (R.Bag.negate a));
      law "filter keeps exactly the passing entries" 200 arb_bag (fun a ->
          let keep t = R.Tuple.hash t land 1 = 0 in
          R.Bag.equal (R.Bag.filter keep a)
            (R.Bag.fold
               (fun t n acc -> if keep t then R.Bag.add ~count:n t acc else acc)
               a R.Bag.empty));
      law "dedup_to_set is a positive set" 200 arb_bag (fun a ->
          let s = R.Bag.dedup_to_set a in
          R.Bag.is_set s && not (R.Bag.has_negative s));
    ]

(* [filter] hands back its argument when nothing is dropped (so a no-op
   key-delete is recognised by [equal]'s physical test), and trims a
   shared collision bucket entry by entry. *)
let filter_cases () =
  let i, j = colliding_pair () in
  let ti = R.Tuple.ints [ i ] and tj = R.Tuple.ints [ j ] in
  let b =
    R.Bag.add ~count:2 ti (R.Bag.add tj (R.Bag.singleton ~count:(-1) t1))
  in
  check_bool "keep-all filter returns its argument" true
    (R.Bag.filter (fun _ -> true) b == b);
  check_bag "drop one entry of a shared bucket"
    (R.Bag.add ~count:2 ti (R.Bag.singleton ~count:(-1) t1))
    (R.Bag.filter (fun t -> not (R.Tuple.equal t tj)) b);
  check_bag "drop the other entry"
    (R.Bag.add tj (R.Bag.singleton ~count:(-1) t1))
    (R.Bag.filter (fun t -> not (R.Tuple.equal t ti)) b);
  check_bag "drop the whole bucket" (R.Bag.singleton ~count:(-1) t1)
    (R.Bag.filter (fun t -> R.Tuple.equal t t1) b);
  check_int "sizes follow" 1
    (R.Bag.distinct_cardinality (R.Bag.filter (fun t -> R.Tuple.equal t t1) b));
  check_bool "drop-all is empty" true
    (R.Bag.is_empty (R.Bag.filter (fun _ -> false) b))

let suite =
  [
    Alcotest.test_case "counts" `Quick counts;
    Alcotest.test_case "sign cancellation" `Quick cancellation;
    Alcotest.test_case "pos/neg parts" `Quick pos_neg_parts;
    Alcotest.test_case "plus and minus" `Quick plus_minus;
    Alcotest.test_case "truncating vs signed difference" `Quick
      truncating_diff;
    Alcotest.test_case "duplicate elimination" `Quick dedup;
    Alcotest.test_case "expansion and byte size" `Quick expansion;
    Alcotest.test_case "filter: no-op and shared buckets" `Quick filter_cases;
  ]
  @ qcheck_suite
