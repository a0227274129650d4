type 'a t = {
  front : 'a list;  (* oldest first *)
  back : 'a list;  (* newest first *)
  length : int;
}

let empty = { front = []; back = []; length = 0 }

let is_empty t = t.length = 0

let length t = t.length

let push t x = { t with back = x :: t.back; length = t.length + 1 }

let pop t =
  match t.front with
  | x :: front -> Some (x, { t with front; length = t.length - 1 })
  | [] -> (
    match List.rev t.back with
    | [] -> None
    | x :: front -> Some (x, { front; back = []; length = t.length - 1 }))

let peek t =
  match t.front with
  | x :: _ -> Some x
  | [] -> ( match List.rev t.back with [] -> None | x :: _ -> Some x)

let to_list t = t.front @ List.rev t.back

let of_list l = { front = l; back = []; length = List.length l }

let filter p t = of_list (List.filter p (to_list t))

let remove_first p t =
  match pop t with
  | Some (x, rest) when p x -> rest
  | None -> t
  | Some _ ->
    let rec drop before = function
      | [] -> t
      | x :: rest ->
        if p x then of_list (List.rev_append before rest)
        else drop (x :: before) rest
    in
    drop [] (to_list t)

(* Via [to_list] so [f]'s effects run oldest-to-newest — callers retransmit
   from inside [f], and the wire order must stay ascending. *)
let map f t = of_list (List.map f (to_list t))

let fold f init t =
  List.fold_left f (List.fold_left f init t.front) (List.rev t.back)

let iter f t = fold (fun () x -> f x) () t

let exists p t = List.exists p t.front || List.exists p t.back
