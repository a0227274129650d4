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

type t = {
  mutable entries : entry list;  (* newest first *)
  initial_views : (string * R.Bag.t) list;
}

let create ~initial_views = { entries = []; initial_views }

let record t e = t.entries <- e :: t.entries

let entries t = List.rev t.entries

let initial_views t = t.initial_views

let source_states t name =
  let initial =
    match List.assoc_opt name t.initial_views with
    | Some v -> [ v ]
    | None -> []
  in
  initial
  @ List.filter_map
      (function
        | Source_update { source_views; _ } | Source_ddl { source_views; _ } ->
          List.assoc_opt name source_views
        | Source_answer _ | Warehouse_note _ | Warehouse_answer _
        | Quiesce_probe _ | Warehouse_ddl _ ->
          None)
      (entries t)

let installs_of = function
  | Warehouse_note { installs; _ }
  | Warehouse_answer { installs; _ }
  | Quiesce_probe { installs; _ }
  | Warehouse_ddl { installs; _ } ->
    installs
  | Source_update _ | Source_answer _ | Source_ddl _ -> []

let warehouse_states t name =
  let initial =
    match List.assoc_opt name t.initial_views with
    | Some v -> [ v ]
    | None -> []
  in
  initial
  @ List.concat_map
      (fun e ->
        match List.assoc_opt name (installs_of e) with
        | Some states -> states
        | None -> [])
      (entries t)

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
