module R = Relational

type report = {
  convergent : bool;
  weakly_consistent : bool;
  consistent : bool;
  strongly_consistent : bool;
  complete : bool;
}

(* Each state is judged through its class (Bag.Classes): source states
   are numbered up to equality, each warehouse state is mapped once to the
   class of an equal source state, or to -1, and the five properties are
   then decided over the two class arrays in one pass each. *)
let check ~source_states ~warehouse_states =
  let classes = R.Bag.Classes.create () in
  let classify f states = Array.of_list (List.map (f classes) states) in
  let src = classify R.Bag.Classes.add source_states in
  let wh = classify R.Bag.Classes.find warehouse_states in
  let n = Array.length src and m = Array.length wh in
  let convergent = n > 0 && m > 0 && src.(n - 1) = wh.(m - 1) in
  let weakly_consistent = Array.for_all (fun k -> k >= 0) wh in
  (* Consistency: an order-preserving (non-decreasing) mapping from
     warehouse states to value-equal source states. Greedy earliest-match
     is complete for this "subsequence with repeats" problem: if any
     non-decreasing assignment exists, mapping each warehouse state to the
     earliest source state at or after the previous match also succeeds. *)
  let j = ref 0 and k = ref 0 in
  while !k < m && !j < n do
    if src.(!j) = wh.(!k) then incr k else incr j
  done;
  let consistent = !k = m in
  let strongly_consistent = consistent && convergent in
  let complete =
    strongly_consistent
    &&
    let hit = Array.make (R.Bag.Classes.count classes) false in
    Array.iter (fun k -> if k >= 0 then hit.(k) <- true) wh;
    Array.for_all Fun.id hit
  in
  { convergent; weakly_consistent; consistent; strongly_consistent; complete }

let strongest_label r =
  if r.complete then "complete"
  else if r.strongly_consistent then "strongly consistent"
  else if r.consistent then "consistent"
  else if r.weakly_consistent && r.convergent then "weakly consistent + convergent"
  else if r.weakly_consistent then "weakly consistent"
  else if r.convergent then "convergent only"
  else "inconsistent"

let pp ppf r =
  Format.fprintf ppf
    "convergent=%b weak=%b consistent=%b strong=%b complete=%b (%s)"
    r.convergent r.weakly_consistent r.consistent r.strongly_consistent
    r.complete (strongest_label r)
