type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let arity = Array.length
let get = Array.get

let ints ns = Array.of_list (List.map (fun n -> Value.Int n) ns)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i >= la then 0
      else
        match Value.compare a.(i) b.(i) with
        | 0 -> loop (i + 1)
        | c -> c
    in
    loop 0

(* Equality is the hot comparison (bag buckets, state checks); unlike
   [compare] it walks the values without allocating a closure. *)
let rec equal_below a b i =
  i < 0 || (Value.equal a.(i) b.(i) && equal_below a b (i - 1))

let equal a b =
  a == b
  || (Array.length a = Array.length b && equal_below a b (Array.length a - 1))

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let byte_size t = Array.fold_left (fun acc v -> acc + Value.byte_size v) 0 t

let concat = Array.append

let project positions t = Array.map (fun i -> t.(i)) positions

let to_string t =
  "[" ^ String.concat "," (List.map Value.to_string (Array.to_list t)) ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)
