module Vec = Dtx_util.Vec

type entry =
  | Prepared of {
      txn : int;
      time : float;
      coord : int;
      redo : (string * string) list;
    }
  | Committed of { txn : int; time : float }
  | Aborted of { txn : int; time : float }

type t = { log : entry Vec.t }

let create () = { log = Vec.create () }

let append t e = Vec.push t.log e

let entries t = Vec.to_list t.log

let length t = Vec.length t.log

let outcome_of t txn =
  Vec.fold_left
    (fun acc e ->
      match e with
      | Prepared p when p.txn = txn && acc = `Unknown -> `In_doubt
      | Committed c when c.txn = txn -> `Committed
      | Aborted a when a.txn = txn -> `Aborted
      | _ -> acc)
    `Unknown t.log

let in_doubt t =
  let prepared = Hashtbl.create 16 in
  Vec.iter
    (fun e ->
      match e with
      | Prepared { txn; _ } -> Hashtbl.replace prepared txn true
      | Committed { txn; _ } | Aborted { txn; _ } ->
        Hashtbl.replace prepared txn false)
    t.log;
  Hashtbl.fold (fun txn pending acc -> if pending then txn :: acc else acc)
    prepared []
  |> List.sort compare

let prepared_record t txn =
  Vec.fold_left
    (fun acc e ->
      match e with
      | Prepared { txn = txn'; coord; redo; _ } when txn' = txn ->
        Some (coord, redo)
      | _ -> acc)
    None t.log

let resolve_presumed_abort t =
  let pending = in_doubt t in
  List.iter (fun txn -> append t (Aborted { txn; time = 0.0 })) pending;
  pending
