type t = Term.t list

let empty = []

let is_empty q = q = []

let of_view v = [ Term.of_view v ]

let of_terms ts = ts

let terms q = q

let negate q = List.map Term.negate q

let plus a b = a @ b

let minus a b = a @ negate b

let subst q (u : Update.t) = List.filter_map (fun t -> Term.subst t u) q

let subst_all q us = List.fold_left subst q us

(* [q] followed by the negated [qj⟨u⟩] of every [qj] that [fold] visits,
   in order — the term list a [minus]/[subst] fold builds, but
   accumulated in reverse and reversed once, so each term is allocated
   once instead of being recopied by every [@] of the fold. *)
let compensate ~fold q u pending =
  let neg_subst acc qj =
    List.fold_left
      (fun acc t ->
        match Term.subst t u with
        | Some t' -> Term.negate t' :: acc
        | None -> acc)
      acc qj
  in
  List.rev (fold neg_subst (List.rev q) pending)

let view_delta v u = subst (of_view v) u

let split_local q =
  List.partition Term.is_all_literals q

(* Cancel T / -T pairs: compensations of compensations can re-introduce a
   term that an earlier compensation subtracted; since queries are signed
   sums, such pairs contribute nothing and need not be shipped or
   evaluated.

   Surviving terms are bucketed by {!Term.hash}, so each incoming term
   compares only against the candidates sharing its opposite's hash
   rather than scanning with full structural [Term.equal]. The
   compensating rungs split literal-only terms off first and simplify
   only the remote rest (see [Eval.split_local]), which under contention
   is a handful of terms out of dozens. The cancelled occurrence is the
   *oldest* match, and survivors keep arrival order, exactly as the
   specification fold ([if opposite ∈ acc then remove first occurrence
   else append]) did. *)
let simplify q =
  match q with
  | [] | [ _ ] -> q
  | _ ->
    let terms = Array.of_list q in
    let n = Array.length terms in
    let alive = Array.make n false in
    (* Term.hash -> indices of live terms, newest first. *)
    let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      let t = terms.(i) in
      let opposite = Term.negate t in
      let cancelled =
        match Hashtbl.find_opt tbl (Term.hash opposite) with
        | None -> false
        | Some bucket ->
          let oldest =
            List.fold_left
              (fun best j ->
                if Term.equal terms.(j) opposite && (best = -1 || j < best)
                then j
                else best)
              (-1) !bucket
          in
          oldest >= 0
          && begin
               alive.(oldest) <- false;
               bucket := List.filter (fun j -> j <> oldest) !bucket;
               true
             end
      in
      if not cancelled then begin
        alive.(i) <- true;
        match Hashtbl.find_opt tbl (Term.hash t) with
        | Some bucket -> bucket := i :: !bucket
        | None -> Hashtbl.add tbl (Term.hash t) (ref [ i ])
      end
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if alive.(i) then out := terms.(i) :: !out
    done;
    !out

let base_relations q =
  List.sort_uniq String.compare (List.concat_map Term.base_relations q)

let term_count = List.length

let byte_size q =
  List.fold_left (fun acc t -> acc + Term.byte_size t) 0 q

let equal a b = List.equal Term.equal a b

(* Order-insensitive digest over the signed term multiset — queries are
   commutative sums, so two queries whose terms pair up under
   [Term.signature] denote the same delta regardless of construction
   order. The warehouse's shared-delta table keys on this and confirms
   candidate matches with [equal] (today's producers build structurally
   equal queries in the same order, so the stricter check loses no
   sharing while making hash collisions harmless). *)
let signature q =
  List.fold_left (fun acc t -> acc + Term.signature t) (term_count q) q

let pp ppf q =
  match q with
  | [] -> Format.pp_print_string ppf "(empty query)"
  | t :: rest ->
    Term.pp ppf t;
    List.iter
      (fun (tm : Term.t) ->
        match tm.Term.sign with
        | Sign.Pos -> Format.fprintf ppf "@ + %a" Term.pp { tm with Term.sign = Sign.Pos }
        | Sign.Neg -> Format.fprintf ppf "@ - %a" Term.pp { tm with Term.sign = Sign.Pos })
      rest

let to_string q = Format.asprintf "%a" pp q
