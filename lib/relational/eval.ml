(* Term/query evaluation over compiled plans.

   {!Plan} fixes layout, join keys, filters and projection positions once
   per term skeleton (cached); this module supplies the runtime: slot
   contents come from the database, intermediate rows live in growable
   arrays, and equi-joins run through a hash table keyed by an explicit
   [Value] hash — no polymorphic hashing, no per-row attribute resolution.

   [naive_term]/[naive_query] keep the obviously-correct reference
   semantics (full cross product, filter, project) for property tests. *)

exception Eval_error of string

let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Join-key hash table: explicit Value hash/equal over key arrays       *)
(* ------------------------------------------------------------------ *)

module Vkey = struct
  type t = Value.t array

  let equal a b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec loop i = i >= la || (Value.equal a.(i) b.(i) && loop (i + 1)) in
    loop 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end

module Vtbl = Hashtbl.Make (Vkey)

(* ------------------------------------------------------------------ *)
(* Growable row buffers                                                *)
(* ------------------------------------------------------------------ *)

(* Intermediate join results: parallel growable arrays of rows and
   replication counts, replacing the consed (row, count) lists the old
   evaluator rebuilt at every slot. *)
module Rows = struct
  type t = {
    mutable data : Value.t array array;
    mutable counts : int array;
    mutable len : int;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    { data = Array.make capacity [||]; counts = Array.make capacity 0; len = 0 }

  let push r row count =
    if r.len = Array.length r.data then begin
      let cap = 2 * r.len in
      let data = Array.make cap [||] and counts = Array.make cap 0 in
      Array.blit r.data 0 data 0 r.len;
      Array.blit r.counts 0 counts 0 r.len;
      r.data <- data;
      r.counts <- counts
    end;
    r.data.(r.len) <- row;
    r.counts.(r.len) <- count;
    r.len <- r.len + 1
end

let slot_contents db = function
  | Term.Base s -> Db.contents db s.Schema.name
  | Term.Lit (s, g, tup) ->
    Schema.check_tuple s tup;
    Bag.singleton ~count:(Sign.to_int g) tup

(* ------------------------------------------------------------------ *)
(* Plan execution                                                      *)
(* ------------------------------------------------------------------ *)

let keep filter row =
  match filter with
  | None -> true
  | Some f -> f row

(* Extend [rows] with [contents] by nested loop (no equi-join keys). *)
let extend_nested rows contents filter =
  let next = Rows.create ~capacity:(Rows.(rows.len)) () in
  for j = 0 to rows.Rows.len - 1 do
    let row = rows.Rows.data.(j) and cnt = rows.Rows.counts.(j) in
    Bag.iter
      (fun tup n ->
        let row' = Tuple.concat row tup in
        if keep filter row' then Rows.push next row' (cnt * n))
      contents
  done;
  next

(* Extend [rows] with [contents] by hash join on [keys]. The hash table is
   built on whichever side is smaller — the accumulated rows or the new
   slot — and seeded to its exact size, so neither side pays rehashing or
   an oversized allocation. *)
let extend_hash rows contents (keys : Plan.join_key array) filter =
  let next = Rows.create ~capacity:(Rows.(rows.len)) () in
  let build_card = Bag.distinct_cardinality contents in
  if build_card <= rows.Rows.len then begin
    (* Build on the slot's contents, probe with the partial rows. *)
    let tbl : (Tuple.t * int) list ref Vtbl.t = Vtbl.create (max 16 build_card) in
    Bag.iter
      (fun tup n ->
        let key = Array.map (fun (k : Plan.join_key) -> Tuple.get tup k.Plan.build_pos) keys in
        match Vtbl.find_opt tbl key with
        | Some cell -> cell := (tup, n) :: !cell
        | None -> Vtbl.add tbl key (ref [ (tup, n) ]))
      contents;
    for j = 0 to rows.Rows.len - 1 do
      let row = rows.Rows.data.(j) and cnt = rows.Rows.counts.(j) in
      let key = Array.map (fun (k : Plan.join_key) -> row.(k.Plan.probe_pos)) keys in
      match Vtbl.find_opt tbl key with
      | None -> ()
      | Some cell ->
        List.iter
          (fun (tup, n) ->
            let row' = Tuple.concat row tup in
            if keep filter row' then Rows.push next row' (cnt * n))
          !cell
    done
  end
  else begin
    (* Fewer partial rows than slot tuples: build on the rows instead and
       stream the slot's contents past the table. *)
    let tbl : (Value.t array * int) list ref Vtbl.t =
      Vtbl.create (max 16 rows.Rows.len)
    in
    for j = 0 to rows.Rows.len - 1 do
      let row = rows.Rows.data.(j) and cnt = rows.Rows.counts.(j) in
      let key = Array.map (fun (k : Plan.join_key) -> row.(k.Plan.probe_pos)) keys in
      match Vtbl.find_opt tbl key with
      | Some cell -> cell := (row, cnt) :: !cell
      | None -> Vtbl.add tbl key (ref [ (row, cnt) ])
    done;
    Bag.iter
      (fun tup n ->
        let key = Array.map (fun (k : Plan.join_key) -> Tuple.get tup k.Plan.build_pos) keys in
        match Vtbl.find_opt tbl key with
        | None -> ()
        | Some cell ->
          List.iter
            (fun (row, cnt) ->
              let row' = Tuple.concat row tup in
              if keep filter row' then Rows.push next row' (cnt * n))
            !cell)
      contents
  end;
  next

(* Execute a compiled plan with slot contents supplied by index. Contents
   are only requested while rows remain, so callers pay nothing for slots
   past an empty join prefix. This single executor serves both [term]
   below and the staged programs in {!Delta_program}: sharing it is what
   makes "compiled = interpreted" an identity rather than a theorem. *)
let run_plan (plan : Plan.t) ~(contents : int -> Bag.t) ~sign =
  if plan.Plan.pre_false then Bag.empty
  else begin
    let rows = ref (Rows.create ~capacity:1 ()) in
    Rows.push !rows [||] 1;
    Array.iteri
      (fun i (sp : Plan.slot_plan) ->
        if !rows.Rows.len > 0 then begin
          let c = contents i in
          rows :=
            if Array.length sp.Plan.keys = 0 then
              extend_nested !rows c sp.Plan.filter
            else extend_hash !rows c sp.Plan.keys sp.Plan.filter
        end)
      plan.Plan.slots;
    let rows = !rows in
    let acc = ref Bag.empty in
    for j = 0 to rows.Rows.len - 1 do
      acc :=
        Bag.add
          ~count:(rows.Rows.counts.(j) * sign)
          (Tuple.project plan.Plan.proj rows.Rows.data.(j))
          !acc
    done;
    !acc
  end

let term db (t : Term.t) =
  let plan = Plan.of_term t in
  let slots = Array.of_list t.Term.slots in
  run_plan plan
    ~contents:(fun i -> slot_contents db slots.(i))
    ~sign:(Sign.to_int t.Term.sign)

let query db q =
  List.fold_left (fun acc t -> Bag.plus acc (term db t)) Bag.empty q

let view db v = query db (Query.of_view v)

(* A literal-only term joins one row: each slot holds a single signed
   tuple. Instead of running the plan's row buffers and hash tables, lay
   the tuples side by side and test each slot's join keys (with
   [Value.equal], the test [Vkey.equal] applies) and residual filter in
   slot order, as [run_plan] would. Tuples are checked in the same order
   and as lazily: a slot past a failed join is never checked. The caller
   has checked that [t] is all literals. *)
let add_literal_row (plan : Plan.t) (t : Term.t) acc =
  if plan.Plan.pre_false then acc
  else begin
    let row =
      Array.concat
        (List.map
           (function Term.Lit (_, _, tup) -> tup | Term.Base _ -> assert false)
           t.Term.slots)
    in
    let offsets = plan.Plan.layout.Plan.offsets in
    let rec go i count = function
      | [] ->
        Bag.add
          ~count:(count * Sign.to_int t.Term.sign)
          (Tuple.project plan.Plan.proj row)
          acc
      | Term.Base _ :: _ -> assert false
      | Term.Lit (s, g, tup) :: rest ->
        Schema.check_tuple s tup;
        let sp = plan.Plan.slots.(i) and off = offsets.(i) in
        if
          Array.for_all
            (fun (k : Plan.join_key) ->
              Value.equal row.(k.Plan.probe_pos) row.(off + k.Plan.build_pos))
            sp.Plan.keys
          && keep sp.Plan.filter row
        then go (i + 1) (count * Sign.to_int g) rest
        else acc
    in
    go 0 1 t.Term.slots
  end

(* Terms derived from one view by substitution share its projection,
   condition and slot schemas physically, so a run of them reuses one
   plan lookup; a term with any other skeleton looks its plan up. *)
let same_skeleton (a : Term.t) (b : Term.t) =
  a.Term.proj == b.Term.proj
  && a.Term.cond == b.Term.cond
  && List.equal
       (fun x y -> Term.slot_schema x == Term.slot_schema y)
       a.Term.slots b.Term.slots

let plan_reuser () =
  let last = ref None in
  fun t ->
    match !last with
    | Some (t', plan) when same_skeleton t' t -> plan
    | _ ->
      let plan = Plan.of_term t in
      last := Some (t, plan);
      plan

let literal_query q =
  let plan_of = plan_reuser () in
  List.fold_left
    (fun acc t ->
      if not (Term.is_all_literals t) then
        error "literal_query: term still references base relations";
      add_literal_row (plan_of t) t acc)
    Bag.empty q

(* Literal-only terms are answered here; only the rest is simplified.
   A term and its negation are both literal-only or both not, so
   cancelling T/-T pairs in the remote part alone makes the same
   decisions as cancelling them in the whole query, and the cancelled
   local pairs sum to zero in the local answer anyway. *)
let split_local q =
  let plan_of = plan_reuser () in
  let rec go local remote = function
    | [] -> (local, Query.simplify (List.rev remote))
    | t :: rest ->
      if Term.is_all_literals t then
        go (add_literal_row (plan_of t) t local) remote rest
      else go local (t :: remote) rest
  in
  go Bag.empty [] q

(* ------------------------------------------------------------------ *)
(* Naive reference evaluator                                           *)
(* ------------------------------------------------------------------ *)

(* Ground truth for equivalence tests: expand the full cross product of
   the slots, evaluate the condition by scanning the layout for every
   attribute reference, and project. No plans, no hash joins, no caches —
   deliberately slow and deliberately independent of the machinery above
   (only the layout/resolution helpers are shared). *)
let naive_term db (t : Term.t) =
  let layout = Plan.layout_of_slots t.Term.slots in
  let slot_rows slot =
    Bag.fold (fun tup n acc -> (tup, n) :: acc) (slot_contents db slot) []
  in
  let rec cross = function
    | [] -> [ (([||] : Value.t array), 1) ]
    | slot :: rest ->
      let tails = cross rest in
      List.concat_map
        (fun (tup, n) ->
          List.map (fun (row, c) -> (Tuple.concat tup row, n * c)) tails)
        (slot_rows slot)
  in
  let lookup row a = row.(Plan.resolve layout a) in
  let proj = Array.of_list (List.map (Plan.resolve layout) t.Term.proj) in
  let sign_factor = Sign.to_int t.Term.sign in
  List.fold_left
    (fun acc (row, count) ->
      if Predicate.eval (lookup row) t.Term.cond then
        Bag.add ~count:(count * sign_factor) (Tuple.project proj row) acc
      else acc)
    Bag.empty (cross t.Term.slots)

let naive_query db q =
  List.fold_left (fun acc t -> Bag.plus acc (naive_term db t)) Bag.empty q
