(* Install lag, read from a finished run's trace.

   A lag is counted for each (view, source update) pair where the update
   changes that view's source state: it is the number of trace entries
   from the update's [Source_update] entry i to the first install of the
   view, at or after i, that equals V[ss_j] for some j >= i. A pair that
   no later install closes is censored at the end of the trace (its lag
   is the distance to the trace's end); a strongly consistent run closes
   every pair. *)

module R = Relational
module T = Core.Trace

(* Order-independent digest of a bag, confirmed by [Bag.equal] before
   two states share an id. *)
let digest b =
  R.Bag.fold (fun t c acc -> acc + Hashtbl.hash (R.Tuple.hash t, c)) b 0

(* Numbers equal bags alike: [id b] is the same int for equal bags. *)
let interner () =
  let table = Hashtbl.create 64 in
  let next = ref 0 in
  fun b ->
    let d = digest b in
    let bucket = Option.value (Hashtbl.find_opt table d) ~default:[] in
    match List.find_opt (fun (b', _) -> R.Bag.equal b b') bucket with
    | Some (_, id) -> id
    | None ->
      let id = !next in
      incr next;
      Hashtbl.replace table d ((b, id) :: bucket);
      id

let installs_of = function
  | T.Warehouse_note { installs; _ }
  | T.Warehouse_answer { installs; _ }
  | T.Quiesce_probe { installs; _ }
  | T.Warehouse_ddl { installs; _ } ->
    installs
  | T.Source_update _ | T.Source_answer _ | T.Source_ddl _ -> []

let source_views_of = function
  | T.Source_update { source_views; _ } | T.Source_ddl { source_views; _ } ->
    source_views
  | T.Source_answer _ | T.Warehouse_note _ | T.Warehouse_answer _
  | T.Quiesce_probe _ | T.Warehouse_ddl _ ->
    []

let view_lags entries ~len ~initial name =
  let id = interner () in
  (* ss_j as (entry index, state id, changed-from-previous) for j >= 1,
     and the view's installs as (entry index, state id). *)
  let states = ref [] and installs = ref [] in
  let prev = ref initial in
  Array.iteri
    (fun e entry ->
      (match List.assoc_opt name (source_views_of entry) with
      | Some s ->
        states := (e, id s, not (R.Bag.equal s !prev)) :: !states;
        prev := s
      | None -> ());
      match List.assoc_opt name (installs_of entry) with
      | Some mvs ->
        List.iter (fun mv -> installs := (e, id mv) :: !installs) mvs
      | None -> ())
    entries;
  let states = Array.of_list (List.rev !states) in
  let installs = Array.of_list (List.rev !installs) in
  (* last.(id) = the largest j whose state has that id; ss_0 is j = 0. *)
  let last = Hashtbl.create 64 in
  Hashtbl.replace last (id initial) 0;
  Array.iteri (fun k (_, sid, _) -> Hashtbl.replace last sid (k + 1)) states;
  let first = ref 0 in
  let lags = ref [] in
  Array.iteri
    (fun k (e, _, changed) ->
      let j = k + 1 in
      while !first < Array.length installs && fst installs.(!first) < e do
        incr first
      done;
      if changed then begin
        let rec close p =
          if p >= Array.length installs then len - e
          else
            let e', sid = installs.(p) in
            match Hashtbl.find_opt last sid with
            | Some lj when lj >= j -> e' - e
            | _ -> close (p + 1)
        in
        lags := close !first :: !lags
      end)
    states;
  !lags

(* Every counted lag of the run, over all views of the trace. *)
let of_trace trace =
  let entries = Array.of_list (T.entries trace) in
  let len = Array.length entries in
  List.concat_map
    (fun (name, initial) -> view_lags entries ~len ~initial name)
    (T.initial_views trace)

(* Quantile [p] of the lags, read as grouped data: each integer lag [v]
   spans [v - 1/2, v + 1/2), and the quantile interpolates inside the
   group that holds rank [p * n]. Unlike a nearest-rank quantile it moves
   smoothly when a tie splits differently, instead of jumping by a whole
   event. 0 for no samples. *)
let quantile lags p =
  match List.sort Int.compare lags with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = p *. float_of_int n in
    (* the group of the value at rank [p * n]: a.(lo) .. a.(hi - 1) *)
    let k = max 0 (min (n - 1) (int_of_float (Float.ceil rank) - 1)) in
    let v = a.(k) in
    let lo = ref k and hi = ref k in
    while !lo > 0 && a.(!lo - 1) = v do decr lo done;
    while !hi < n && a.(!hi) = v do incr hi done;
    float_of_int v -. 0.5
    +. ((rank -. float_of_int !lo) /. float_of_int (!hi - !lo))
