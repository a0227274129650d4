(* Hash-indexed signed bags.

   The bag is a persistent map from tuple *hash* to a small collision
   bucket of [(tuple, count)] entries. Dispatching on the precomputed
   integer hash means every lookup/update walks the tree comparing single
   ints and only runs full [Tuple.equal] inside a (nearly always
   single-entry) bucket — O(1) expected tuple comparisons per operation,
   against the former [Map.Make (Tuple)] tree that paid a full-tuple
   comparison at every node.

   Iteration order of [fold]/[iter] follows hash order and is therefore
   arbitrary (but deterministic for a given bag). Everything user-facing —
   [pp], [to_list], [to_counted_list], [compare] — sorts by [Tuple.compare]
   first, so printed output, golden files and cross-bag comparisons keep
   the canonical tuple order of the old tree representation. *)

module Imap = Map.Make (Int)

type t = {
  size : int;  (* number of distinct tuples, i.e. total bucket entries *)
  buckets : (Tuple.t * int) list Imap.t;
}

let empty = { size = 0; buckets = Imap.empty }

let is_empty b = b.size = 0

let distinct_cardinality b = b.size

let count b t =
  match Imap.find_opt (Tuple.hash t) b.buckets with
  | None -> 0
  | Some bucket -> (
    match List.find_opt (fun (t', _) -> Tuple.equal t t') bucket with
    | Some (_, n) -> n
    | None -> 0)

let add ?(count = 1) t b =
  if count = 0 then b
  else
    let h = Tuple.hash t in
    let bucket = Option.value (Imap.find_opt h b.buckets) ~default:[] in
    let rec split acc = function
      | [] -> None
      | ((t', n) :: rest : (Tuple.t * int) list) ->
        if Tuple.equal t t' then Some (acc, n, rest) else split ((t', n) :: acc) rest
    in
    match split [] bucket with
    | None ->
      { size = b.size + 1; buckets = Imap.add h ((t, count) :: bucket) b.buckets }
    | Some (before, n, after) ->
      let n' = n + count in
      if n' = 0 then
        let bucket' = List.rev_append before after in
        if bucket' = [] then
          { size = b.size - 1; buckets = Imap.remove h b.buckets }
        else { size = b.size - 1; buckets = Imap.add h bucket' b.buckets }
      else
        {
          size = b.size;
          buckets = Imap.add h ((t, n') :: List.rev_append before after) b.buckets;
        }

let remove ?(count = 1) t b = add ~count:(-count) t b

let singleton ?count t = add ?count t empty

let of_list ts = List.fold_left (fun b t -> add t b) empty ts

let of_signed_list sts =
  List.fold_left (fun b (s, t) -> add ~count:(Sign.to_int s) t b) empty sts

let fold f b acc =
  Imap.fold
    (fun _ bucket acc ->
      List.fold_left (fun acc (t, n) -> f t n acc) acc bucket)
    b.buckets acc

let iter f b =
  Imap.iter (fun _ bucket -> List.iter (fun (t, n) -> f t n) bucket) b.buckets

(* Fold the smaller operand into the larger: counts add commutatively, so
   the result is the same bag either way. *)
let plus a b =
  let small, large = if a.size <= b.size then a, b else b, a in
  fold (fun t n acc -> add ~count:n t acc) small large

(* Rebuild with a per-entry count transform ([f] returning None drops the
   entry); used by all the mapping/filtering operations below. *)
let filter_map_counts f b =
  let size = ref 0 in
  let buckets =
    Imap.filter_map
      (fun _ bucket ->
        match
          List.filter_map
            (fun (t, n) ->
              match f t n with
              | Some 0 | None -> None
              | Some n' ->
                incr size;
                Some (t, n'))
            bucket
        with
        | [] -> None
        | bucket' -> Some bucket')
      b.buckets
  in
  { size = !size; buckets }

let negate b = filter_map_counts (fun _ n -> Some (-n)) b

let minus a b = plus a (negate b)

let scale k b = if k = 0 then empty else filter_map_counts (fun _ n -> Some (n * k)) b

let apply_sign s b =
  match s with
  | Sign.Pos -> b
  | Sign.Neg -> negate b

let pos_part b = filter_map_counts (fun _ n -> if n > 0 then Some n else None) b

let neg_part b = filter_map_counts (fun _ n -> if n < 0 then Some (-n) else None) b

let union a b = plus (pos_part a) (pos_part b)

(* Truncating bag difference on non-negative bags: copies below zero vanish.
   This is classic multiset difference, provided for comparison with the
   paper's (pos ∪ pos) − (neg ∪ neg) formulation; the signed [minus] above
   is the operator the algorithms use. *)
let diff_truncated a b =
  let pa = pos_part a in
  fold
    (fun t nb acc ->
      match count acc t with
      | 0 -> acc
      | na -> add ~count:(max 0 (na - nb) - na) t acc)
    (pos_part b) pa

let cardinality b = fold (fun _ n acc -> acc + abs n) b 0

let net_cardinality b = fold (fun _ n acc -> acc + n) b 0

let has_negative b =
  Imap.exists (fun _ bucket -> List.exists (fun (_, n) -> n < 0) bucket) b.buckets

let is_set b =
  Imap.for_all (fun _ bucket -> List.for_all (fun (_, n) -> n = 1) bucket) b.buckets

(* Buckets hold the same entries in arbitrary order when two bags were
   built along different paths, so bucket equality is multiset equality.
   Nearly every bucket is a singleton; that case allocates no closure, and
   bags that share structure often share the tuple itself. *)
let bucket_equal b1 b2 =
  match b1, b2 with
  | [ (t, n) ], [ (t', n') ] -> n = n' && (t == t' || Tuple.equal t t')
  | _ ->
    List.length b1 = List.length b2
    && List.for_all
         (fun (t, n) ->
           List.exists (fun (t', n') -> n = n' && Tuple.equal t t') b2)
         b1

let equal a b =
  a == b || (a.size = b.size && Imap.equal bucket_equal a.buckets b.buckets)

(* A bijective scramble of the tuple hash (splitmix64's finaliser, its
   constants cut to OCaml's 63-bit ints): similar tuples have nearby
   hashes, and their plain sums would often coincide across bags. *)
let mix h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let rec bucket_count acc = function
  | [] -> acc
  | ((_, n) : Tuple.t * int) :: rest -> bucket_count (acc + n) rest

(* Every entry of a bucket has the bucket's hash, so the bucket weighs
   mix(h) times its net count. *)
let fingerprint b =
  Imap.fold
    (fun h bucket acc -> acc + (mix h * bucket_count 0 bucket))
    b.buckets 0

module Classes = struct
  type bag = t

  type nonrec t = {
    by_fingerprint : (int, bag * int) Hashtbl.t;
    mutable count : int;
    mutable last : bag;  (* the bag classified last, and its class *)
    mutable last_class : int;
  }

  let create () =
    {
      by_fingerprint = Hashtbl.create 64;
      count = 0;
      last = empty;
      last_class = -1;
    }

  let count c = c.count

  let rec confirm b = function
    | [] -> -1
    | (b', k) :: rest -> if equal b b' then k else confirm b rest

  let classify ~add c b =
    if b == c.last && c.last_class >= 0 then c.last_class
    else
      let fp = fingerprint b in
      let k =
        match confirm b (Hashtbl.find_all c.by_fingerprint fp) with
        | -1 when add ->
          let k = c.count in
          Hashtbl.add c.by_fingerprint fp (b, k);
          c.count <- k + 1;
          k
        | k -> k
      in
      if k >= 0 then begin
        c.last <- b;
        c.last_class <- k
      end;
      k

  let add = classify ~add:true
  let find = classify ~add:false
end

let to_counted_list b =
  fold (fun t n acc -> (t, n) :: acc) b []
  |> List.sort (fun (t1, _) (t2, _) -> Tuple.compare t1 t2)

(* Canonical order: lexicographic over the tuple-sorted entry sequence,
   exactly the order the old [Map.Make (Tuple)] representation compared in. *)
let compare a b =
  List.compare
    (fun (t1, n1) (t2, n2) ->
      match Tuple.compare t1 t2 with 0 -> Int.compare n1 n2 | c -> c)
    (to_counted_list a) (to_counted_list b)

let mem t b = count b t <> 0

(* [Imap.filter] returns its argument when it keeps every binding, so a
   filter that drops nothing returns [b] itself and allocates nothing —
   a no-op key-delete is then recognised by [equal]'s [==] test. A
   collision bucket that loses only some entries is re-added trimmed. *)
let filter f b =
  let dropped = ref 0 and trimmed = ref [] in
  let buckets =
    Imap.filter
      (fun h bucket ->
        match bucket with
        | [ (t, _) ] -> f t || (incr dropped; false)
        | _ -> (
          let kept = List.filter (fun (t, _) -> f t) bucket in
          let lost = List.length bucket - List.length kept in
          lost = 0
          || begin
               dropped := !dropped + lost;
               if kept <> [] then trimmed := (h, kept) :: !trimmed;
               false
             end))
      b.buckets
  in
  if !dropped = 0 then b
  else
    {
      size = b.size - !dropped;
      buckets =
        List.fold_left (fun m (h, kept) -> Imap.add h kept m) buckets !trimmed;
    }

let map_tuples f b = fold (fun t n acc -> add ~count:n (f t) acc) b empty

let to_list b =
  List.concat_map
    (fun (t, n) ->
      let s = Sign.of_int n in
      List.init (abs n) (fun _ -> (s, t)))
    (to_counted_list b)

let byte_size b = fold (fun t n acc -> acc + (abs n * Tuple.byte_size t)) b 0

let dedup_to_set b = filter_map_counts (fun _ n -> if n > 0 then Some 1 else None) b

let pp ppf b =
  let pp_entry ppf (t, n) =
    if n = 1 then Tuple.pp ppf t
    else if n = -1 then Format.fprintf ppf "-%a" Tuple.pp t
    else Format.fprintf ppf "%+d*%a" n Tuple.pp t
  in
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_entry)
    (to_counted_list b)

let to_string b = Format.asprintf "%a" pp b
