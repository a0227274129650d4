module R = Relational

exception Not_applicable of string

(* A key-delete that happened while queries were pending: answers to
   queries sent before the delete (id < cutoff) may still carry view
   tuples derived from the deleted base tuple and must be filtered.

   This extends the paper's Section 5.4 description, whose Appendix C
   argument ("the query is executed at the source after the delete, so it
   does not see one of the key values") silently assumes the insert whose
   query is in flight targets a different relation than the delete. When
   an insert into r and a delete of the same r-tuple race the insert's
   query, that query carries the deleted tuple as a literal and its answer
   re-adds the tuple after the local key-delete. The tombstone is the
   minimal repair: it applies the key-delete to exactly the answers of
   queries that predate the delete. Queries issued after the delete get
   ids >= cutoff and are unaffected, so re-insertions of the same key
   survive. The regression test pins the exact counterexample. *)
type tombstone = {
  rel : string;
  tuple : R.Tuple.t;
  cutoff : int;
}

type t = {
  view : R.View.t;
  mutable mv : R.Bag.t;
  mutable collect : R.Bag.t;  (* working copy of MV, a set *)
  mutable uqs : int R.Fqueue.t;
  mutable next_id : int;
  mutable dirty : bool;  (* collect differs from mv *)
  mutable tombstones : tombstone list;
}

(* The rung check [create] enforces, as a predicate the catalog's
   auto-rung ladder can consult without constructing an instance. *)
let applicable (vd : R.Viewdef.t) =
  match R.Viewdef.as_simple vd with
  | Some v -> R.View.covers_all_keys v
  | None -> false

let create (cfg : Algorithm.Config.t) =
  let view =
    match R.Viewdef.as_simple cfg.view with
    | Some v -> v
    | None ->
      raise
        (Not_applicable
           (Printf.sprintf
              "ECAK requires a simple SPJ view; %s is compound"
              cfg.view.R.Viewdef.name))
  in
  if not (R.View.covers_all_keys view) then
    raise
      (Not_applicable
         (Printf.sprintf
            "ECAK requires view %s to project a declared key of every base \
             relation"
            view.R.View.name));
  {
    view;
    mv = cfg.init_mv;
    collect = R.Bag.dedup_to_set cfg.init_mv;
    uqs = R.Fqueue.empty;
    next_id = 0;
    dirty = false;
    tombstones = [];
  }

let mv t = t.mv

let collect t = t.collect

let quiescent t = R.Fqueue.is_empty t.uqs && not t.dirty

(* When UQS is empty the working copy replaces the view; COLLECT is not
   reset — it remains the working copy (step 5 of Section 5.4). *)
let maybe_install t =
  if R.Fqueue.is_empty t.uqs && t.dirty then begin
    t.mv <- t.collect;
    t.dirty <- false;
    Algorithm.install t.mv
  end
  else Algorithm.nothing

let set_collect t collect' =
  if not (R.Bag.equal collect' t.collect) then begin
    t.collect <- collect';
    t.dirty <- true
  end

let on_update t (u : R.Update.t) =
  if not (R.View.mentions t.view u.R.Update.rel) then Algorithm.nothing
  else
    match u.R.Update.kind with
    | R.Update.Delete ->
      (* Handled locally: the projected key identifies exactly the view
         tuples derived from the deleted base tuple. *)
      set_collect t
        (Mview.key_delete ~view:t.view ~rel:u.R.Update.rel u.R.Update.tuple
           t.collect);
      if not (R.Fqueue.is_empty t.uqs) then
        t.tombstones <-
          { rel = u.R.Update.rel; tuple = u.R.Update.tuple; cutoff = t.next_id }
          :: t.tombstones;
      maybe_install t
    | R.Update.Insert ->
      (* A plain V⟨U⟩ — no compensation. Anomalies surface only as
         duplicate answer tuples (dropped on receipt), tuples covered by a
         tombstone, or missing tuples a concurrent delete would have
         removed anyway. *)
      let local, remote = R.Eval.split_local (R.Query.view_delta t.view u) in
      if not (R.Bag.is_empty local) then
        set_collect t (Mview.add_dedup t.collect local);
      if R.Query.is_empty remote then maybe_install t
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.uqs <- R.Fqueue.push t.uqs id;
        Algorithm.send_one id remote
      end

let on_answer t ~id answer =
  t.uqs <- R.Fqueue.remove_first (fun i -> i = id) t.uqs;
  let answer =
    List.fold_left
      (fun a ts ->
        if id < ts.cutoff then
          Mview.key_delete ~view:t.view ~rel:ts.rel ts.tuple a
        else a)
      answer t.tombstones
  in
  set_collect t (Mview.add_dedup t.collect answer);
  (* Even an unchanged working copy must be installable once the pending
     phase ends: a stale MV may still differ from COLLECT. *)
  if R.Fqueue.is_empty t.uqs then begin
    t.tombstones <- [];
    if not (R.Bag.equal t.mv t.collect) then t.dirty <- true
  end;
  maybe_install t

let instance cfg =
  let t = create cfg in
  {
    Algorithm.name = "eca-key";
    (* on_update guards with [View.mentions]: foreign updates are a
       stateless no-op, so dispatch may skip the instance. *)
    interest = Some (R.Viewdef.relation_names cfg.Algorithm.Config.view);
    on_update = on_update t;
    on_batch = (fun us -> Algorithm.sequential_batch (on_update t) us);
    on_answer = (fun ~id a -> on_answer t ~id a);
    on_quiesce = (fun () -> Algorithm.nothing);
    mv = (fun () -> mv t);
    quiescent = (fun () -> quiescent t);
    counters = (fun () -> []);
  }
