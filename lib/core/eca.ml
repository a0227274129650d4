module R = Relational

type t = {
  view : R.Viewdef.t;
  mutable mv : R.Bag.t;
  mutable collect : R.Bag.t;
  mutable uqs : (int * R.Query.t) R.Fqueue.t;  (* oldest first *)
  mutable next_id : int;
  local_literal_eval : bool;
}

(* ECA is the universal rung: any SPJ viewdef, simple or compound, keyed
   or not — the catalog's ladder falls back to it when no cheaper rung
   applies. *)
let applicable (_ : R.Viewdef.t) = true

let create (cfg : Algorithm.Config.t) =
  {
    view = cfg.view;
    mv = cfg.init_mv;
    collect = R.Bag.empty;
    uqs = R.Fqueue.empty;
    next_id = 0;
    local_literal_eval = cfg.Algorithm.Config.local_literal_eval;
  }

(* Answer the literal-only terms here when local evaluation is enabled;
   otherwise ship the whole query, as a literal reading of Algorithm 5.2
   would. *)
let split t q =
  if t.local_literal_eval then R.Eval.split_local q
  else (R.Bag.empty, R.Query.simplify q)

(* Fold [f] over the pending queries, oldest first, without copying the
   UQS. *)
let fold_uqs f acc uqs = R.Fqueue.fold (fun acc (_, qj) -> f acc qj) acc uqs

let mv t = t.mv

let uqs t = R.Fqueue.to_list t.uqs

let quiescent t = R.Fqueue.is_empty t.uqs && R.Bag.is_empty t.collect

let replace_mv t mv =
  if not (quiescent t) then
    invalid_arg "Eca.replace_mv: instance has pending work";
  t.mv <- mv

(* Install COLLECT into the view once no query is pending — installing
   earlier could expose an invalid intermediate state (the algorithm would
   still converge, but stop being consistent; see Section 5.2). *)
let maybe_install t =
  if R.Fqueue.is_empty t.uqs && not (R.Bag.is_empty t.collect) then begin
    t.mv <- Mview.apply_delta t.mv t.collect;
    t.collect <- R.Bag.empty;
    Algorithm.install t.mv
  end
  else Algorithm.nothing

let on_update t (u : R.Update.t) =
  (* Q_i = V⟨U_i⟩ − Σ_{Q_j ∈ UQS} Q_j⟨U_i⟩ *)
  let q =
    R.Query.compensate ~fold:fold_uqs (R.Viewdef.delta t.view u) u t.uqs
  in
  (* Terms whose slots are all substituted tuples need no base data: they
     are evaluated here and never shipped (Appendix D's "no compensating
     query needs to be sent since all data needed is already at the
     warehouse"); exact T/-T pairs cancel outright. *)
  let local, remote = split t q in
  t.collect <- R.Bag.plus t.collect local;
  if R.Query.is_empty remote then maybe_install t
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.uqs <- R.Fqueue.push t.uqs (id, remote);
    Algorithm.send_one id remote
  end

let on_answer t ~id answer =
  t.uqs <- R.Fqueue.remove_first (fun (i, _) -> i = id) t.uqs;
  t.collect <- R.Bag.plus t.collect answer;
  maybe_install t

(* Batched updates (Section 7): the whole batch becomes one query under
   one id. Each update's delta compensates both the pending queries and
   the remote terms already accumulated for this batch — all of which the
   source will evaluate after the entire batch has been applied. *)
let on_batch t us =
  (* the batch's remote parts so far, oldest first; they are compensated
     after the UQS, as if already pending *)
  let batch = ref R.Fqueue.empty in
  let fold_pending f acc batch = R.Fqueue.fold f (fold_uqs f acc t.uqs) batch in
  List.iter
    (fun u ->
      let q =
        R.Query.compensate ~fold:fold_pending (R.Viewdef.delta t.view u) u
          !batch
      in
      let local, remote = split t q in
      t.collect <- R.Bag.plus t.collect local;
      if not (R.Query.is_empty remote) then batch := R.Fqueue.push !batch remote)
    us;
  let batch_remote = List.concat (R.Fqueue.to_list !batch) in
  if R.Query.is_empty batch_remote then maybe_install t
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.uqs <- R.Fqueue.push t.uqs (id, batch_remote);
    Algorithm.send_one id batch_remote
  end

let of_state t =
  {
    Algorithm.name = "eca";
    (* Viewdef.delta and Query.subst are both empty for a foreign base
       relation, so an update outside the view's relations provably
       yields [nothing] and touches no state: safe to skip at dispatch. *)
    interest = Some (R.Viewdef.relation_names t.view);
    on_update = on_update t;
    on_batch = on_batch t;
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> []);
  }

let instance cfg = of_state (create cfg)

(* Online (re)initialization: start from an empty materialization with the
   full view query V' already pending in the UQS, as if the view's birth
   were the maintenance of one big insertion (Section 5.2's observation
   that initialization is just maintenance of the full query). Updates
   arriving while the query is in flight are compensated by the ordinary
   ECA algebra — V'⟨U⟩ − Q0⟨U⟩ — so the state installed when the UQS
   drains reflects every update the source executed, on whichever side of
   the query it landed. This is what the warehouse swaps in when a schema
   change invalidates a hosted view. *)
let refresh cfg =
  let t = create { cfg with Algorithm.Config.init_mv = R.Bag.empty } in
  let q = R.Query.simplify (R.Viewdef.full_query t.view) in
  if R.Query.is_empty q then (of_state t, Algorithm.install t.mv)
  else begin
    t.uqs <- R.Fqueue.push t.uqs (0, q);
    t.next_id <- 1;
    (of_state t, Algorithm.send_one 0 q)
  end
