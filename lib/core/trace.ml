module R = Relational

type entry =
  | Source_update of {
      updates : R.Update.t list;  (* one entry, or a batch *)
      source_views : (string * R.Bag.t) list;
          (* view contents after this event; the engine maintains them
             incrementally from the updates' delta queries (see
             [Engine.oracle]), so successive entries share structure *)
    }
  | Source_answer of {
      gid : int;
      answer : R.Bag.t;
      cost : Storage.Cost.t;
    }
  | Warehouse_note of {
      updates : R.Update.t list;
      queries : (int * R.Query.t) list;
      installs : (string * R.Bag.t list) list;
    }
  | Warehouse_answer of {
      gid : int;
      installs : (string * R.Bag.t list) list;
    }
  | Quiesce_probe of {
      queries : (int * R.Query.t) list;
      installs : (string * R.Bag.t list) list;
    }
  | Source_ddl of {
      ddl : R.Update.ddl;
      source_views : (string * R.Bag.t) list;
          (* only the views the change affects — whose definitions were
             rewritten over the evolved schema *)
    }
  | Warehouse_ddl of {
      ddl : R.Update.ddl;
      rebuilt : string list;  (* views swapped to refreshing instances *)
      queries : (int * R.Query.t) list;  (* their full-view queries *)
      installs : (string * R.Bag.t list) list;
    }

(* One view's states, as [source_states]/[warehouse_states] read them:
   [stamp] is the last entry that contributed, so only a view's first
   binding in an entry counts, as [List.assoc_opt] would read it. *)
type view_states = {
  mutable source : R.Bag.t list;  (* newest first *)
  mutable warehouse : R.Bag.t list;  (* newest first *)
  mutable stamp : int;
}

type t = {
  mutable entries : entry list;  (* newest first *)
  mutable recorded : int;
  initial_views : (string * R.Bag.t) list;
  views : (string, view_states) Hashtbl.t;
}

let create ~initial_views =
  { entries = []; recorded = 0; initial_views; views = Hashtbl.create 16 }

(* Files into the view's states, unless this entry already did. *)
let file t name add =
  let v =
    match Hashtbl.find_opt t.views name with
    | Some v -> v
    | None ->
      let v = { source = []; warehouse = []; stamp = -1 } in
      Hashtbl.add t.views name v;
      v
  in
  if v.stamp <> t.recorded then begin
    v.stamp <- t.recorded;
    add v
  end

let record t e =
  t.entries <- e :: t.entries;
  t.recorded <- t.recorded + 1;
  match e with
  | Source_update { source_views; _ } | Source_ddl { source_views; _ } ->
    List.iter
      (fun (name, b) -> file t name (fun v -> v.source <- b :: v.source))
      source_views
  | Warehouse_note { installs; _ }
  | Warehouse_answer { installs; _ }
  | Quiesce_probe { installs; _ }
  | Warehouse_ddl { installs; _ } ->
    List.iter
      (fun (name, states) ->
        file t name (fun v ->
            v.warehouse <- List.rev_append states v.warehouse))
      installs
  | Source_answer _ -> ()

let entries t = List.rev t.entries

let initial_views t = t.initial_views

let states t name side =
  let newest_first =
    match Hashtbl.find_opt t.views name with Some v -> side v | None -> []
  in
  let states = List.rev newest_first in
  match List.assoc_opt name t.initial_views with
  | Some v -> v :: states
  | None -> states

let source_states t name = states t name (fun v -> v.source)

let warehouse_states t name = states t name (fun v -> v.warehouse)

let pp_queries ppf qs =
  match qs with
  | [] -> ()
  | qs ->
    Format.fprintf ppf " sends %s"
      (String.concat ", "
         (List.map (fun (gid, _) -> Printf.sprintf "Q%d" gid) qs))

let pp_entry ppf = function
  | Source_update { updates; _ } ->
    Format.fprintf ppf "S_up  %s"
      (String.concat "; " (List.map R.Update.to_string updates))
  | Source_answer { gid; answer; cost } ->
    Format.fprintf ppf "S_qu  Q%d -> A%d = %a %a" gid gid R.Bag.pp answer
      Storage.Cost.pp cost
  | Warehouse_note { updates; queries; installs } ->
    Format.fprintf ppf "W_up  %s%a%s"
      (String.concat "; " (List.map R.Update.to_string updates))
      pp_queries queries
      (if installs = [] then "" else " installs MV")
  | Warehouse_answer { gid; installs } ->
    Format.fprintf ppf "W_ans A%d%s" gid
      (if installs = [] then "" else " installs MV")
  | Quiesce_probe { queries; installs } ->
    Format.fprintf ppf "quiesce%a%s" pp_queries queries
      (if installs = [] then "" else " installs MV")
  | Source_ddl { ddl; _ } ->
    Format.fprintf ppf "S_ddl %s" (R.Update.ddl_to_string ddl)
  | Warehouse_ddl { ddl; rebuilt; queries; installs } ->
    Format.fprintf ppf "W_ddl %s rebuilds [%s]%a%s"
      (R.Update.ddl_to_string ddl)
      (String.concat "; " rebuilt)
      pp_queries queries
      (if installs = [] then "" else " installs MV")

let pp ppf t =
  List.iteri (fun i e -> Format.fprintf ppf "%3d. %a@." (i + 1) pp_entry e)
    (entries t)
