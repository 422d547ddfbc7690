module Protocol = Dtx_protocol.Protocol
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Wfg = Dtx_locks.Wfg
module Storage = Dtx_storage.Storage
module Doc = Dtx_xml.Doc
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec

type deadlock_policy = Detection | Wait_die | Wound_wait

type op_outcome =
  | Granted of { lock_requests : int; touched : int; result_nodes : int }
  | Blocked of { lock_requests : int; blockers : int list; wound : int list }
  | Deadlock of { lock_requests : int }
  | Op_failed of string

type waiter = {
  waiting_txn : int;
  waiting_coordinator : int;
}

type stats = {
  mutable ops_processed : int;
  mutable lock_requests : int;
  mutable blocked_ops : int;
  mutable local_deadlocks : int;
}

type t = {
  id : int;
  protocol : Protocol.t;
  deadlock_policy : deadlock_policy;
  table : Table.t;
  wfg : Wfg.t;
  storage : Storage.t;
  op_effects : (int * int, op_effect) Hashtbl.t;
  txn_ops : (int, int list ref) Hashtbl.t;
  waiters : (int, waiter list ref) Hashtbl.t;
  txn_coords : (int, int) Hashtbl.t;
  mutable busy_until : float;
  stats : stats;
  mutable access_sink :
    (txn:int -> op_index:int -> attempt:int ->
     (Table.resource * Dtx_locks.Mode.t) list -> unit)
    option;
  mutable undo_sink : (txn:int -> op_index:int -> attempt:int -> unit) option;
  wal : Wal.t;
}

and op_effect = {
  eff_doc : string;
  eff_op : Op.t;
  eff_attempt : int;
  eff_requests : (Table.resource * Dtx_locks.Mode.t) list;
  eff_undo : Exec.undo_entry list;
  eff_touched : int;
}

let create ~id ~protocol_kind ?(deadlock_policy = Detection) ~storage ~docs () =
  let protocol = Protocol.create protocol_kind in
  List.iter
    (fun doc ->
      let replica = Doc.clone doc in
      Protocol.add_doc protocol replica;
      Storage.store storage replica)
    docs;
  { id;
    protocol;
    deadlock_policy;
    table = Table.create ();
    wfg = Wfg.create ();
    storage;
    op_effects = Hashtbl.create 64;
    txn_ops = Hashtbl.create 32;
    waiters = Hashtbl.create 32;
    txn_coords = Hashtbl.create 32;
    busy_until = 0.0;
    stats =
      { ops_processed = 0; lock_requests = 0; blocked_ops = 0;
        local_deadlocks = 0 };
    access_sink = None;
    undo_sink = None;
    wal = Wal.create () }

let note_txn_op t ~txn ~op_index =
  match Hashtbl.find_opt t.txn_ops txn with
  | Some l -> l := op_index :: !l
  | None -> Hashtbl.replace t.txn_ops txn (ref [ op_index ])

let undo_effect t ~txn ~op_index (eff : op_effect) =
  (match t.undo_sink with
   | Some sink -> sink ~txn ~op_index ~attempt:eff.eff_attempt
   | None -> ());
  (match Protocol.doc t.protocol eff.eff_doc with
   | Some doc ->
     let dg = Exec.undo doc eff.eff_undo in
     Protocol.note_applied t.protocol ~doc:eff.eff_doc dg
   | None -> ());
  Table.release_request t.table ~txn eff.eff_requests;
  Hashtbl.remove t.op_effects (txn, op_index);
  match Hashtbl.find_opt t.txn_ops txn with
  | Some l -> l := List.filter (fun i -> i <> op_index) !l
  | None -> ()

(* The Commute protocol's optimistic execution path: the coordinator's
   classifier proved this operation commutes with everything active, so a
   read-only footprint acquires nothing at all and an update footprint is
   downgraded to intention modes (IS/IX are mutually compatible, so
   optimistic transactions never block each other, while IX still collides
   with a pessimistic holder's ST/X — the safety net). The {e full} derived
   footprint is still recorded with the history sink, so the
   serializability checker judges the real access pattern, not the
   downgraded locks. *)
let optimistic_requests op requests =
  if
    (not (Op.is_update op))
    && not (List.exists (fun (_, m) -> Mode.is_exclusive m) requests)
  then []
  else
    List.sort_uniq
      (fun (r1, m1) (r2, m2) ->
        let c = Table.compare_resource r1 r2 in
        if c <> 0 then c else compare m1 m2)
      (List.map (fun (r, m) -> (r, Mode.intention_for m)) requests)

let process_operation_fresh ?(optimistic = false) t ~txn ~op_index ~attempt
    ~doc:doc_name op =
  t.stats.ops_processed <- t.stats.ops_processed + 1;
  (* A transaction runs one operation at a time, so any of its previous wait
     edges here are stale (it was woken, or this is another attempt). *)
  Wfg.clear_waits_of t.wfg txn;
  match Protocol.lock_requests t.protocol ~doc:doc_name op with
  | Error e -> Op_failed e
  | Ok (full_requests, processed) -> (
    let requests =
      if optimistic then optimistic_requests op full_requests
      else full_requests
    in
    (* Optimistic operations are charged only for the locks they actually
       take — the skipped lock-manager work is the protocol's win. *)
    let n_requests = if optimistic then List.length requests else processed in
    t.stats.lock_requests <- t.stats.lock_requests + n_requests;
    match Table.acquire_all t.table ~txn requests with
    | Error blockers -> (
      t.stats.blocked_ops <- t.stats.blocked_ops + 1;
      match t.deadlock_policy with
      | Detection ->
        Wfg.add_wait t.wfg ~waiter:txn ~holders:blockers;
        if Wfg.find_cycle t.wfg <> None then begin
          t.stats.local_deadlocks <- t.stats.local_deadlocks + 1;
          Deadlock { lock_requests = n_requests }
        end
        else Blocked { lock_requests = n_requests; blockers; wound = [] }
      | Wait_die ->
        (* Ids are ages: smaller id = older. The requester may only wait
           for younger holders; waits therefore always point old -> young,
           so no cycle can ever form. *)
        if List.exists (fun b -> b < txn) blockers then begin
          t.stats.local_deadlocks <- t.stats.local_deadlocks + 1;
          Deadlock { lock_requests = n_requests }
        end
        else begin
          Wfg.add_wait t.wfg ~waiter:txn ~holders:blockers;
          Blocked { lock_requests = n_requests; blockers; wound = [] }
        end
      | Wound_wait ->
        (* The requester wounds younger holders and waits for older ones;
           waits point young -> old, again acyclic. *)
        let wound = List.filter (fun b -> b > txn) blockers in
        let older = List.filter (fun b -> b < txn) blockers in
        Wfg.add_wait t.wfg ~waiter:txn ~holders:older;
        Blocked { lock_requests = n_requests; blockers; wound })
    | Ok () -> (
      let doc =
        match Protocol.doc t.protocol doc_name with
        | Some d -> d
        | None -> assert false (* lock_requests already checked *)
      in
      match Exec.apply doc op with
      | Error e ->
        (* Locks were granted but the operation itself cannot run; give the
           locks back — the transaction will be aborted, not blocked. *)
        Table.release_request t.table ~txn requests;
        Op_failed (Exec.error_to_string e)
      | Ok effect ->
        Protocol.note_applied t.protocol ~doc:doc_name effect.Exec.dg;
        Hashtbl.replace t.op_effects (txn, op_index)
          { eff_doc = doc_name;
            eff_op = op;
            eff_attempt = attempt;
            eff_requests = requests;
            eff_undo = effect.Exec.undo;
            eff_touched = effect.Exec.touched };
        note_txn_op t ~txn ~op_index;
        (match t.access_sink with
         | Some sink -> sink ~txn ~op_index ~attempt full_requests
         | None -> ());
        Granted
          { lock_requests = n_requests;
            touched = effect.Exec.touched;
            result_nodes = effect.Exec.result_count }))

let process_operation ?(optimistic = false) t ~txn ~op_index ~attempt
    ~doc:doc_name op =
  (* A lingering effect from an earlier attempt means the cross-site undo
     message has not landed yet (the coordinator already decided to retry);
     reverse it before re-executing so effects never double-apply. *)
  (match Hashtbl.find_opt t.op_effects (txn, op_index) with
   | Some eff -> undo_effect t ~txn ~op_index eff
   | None -> ());
  process_operation_fresh ~optimistic t ~txn ~op_index ~attempt ~doc:doc_name
    op

let undo_operation ?only_attempt t ~txn ~op_index =
  match Hashtbl.find_opt t.op_effects (txn, op_index) with
  | None -> ()
  | Some eff ->
    let matches =
      match only_attempt with None -> true | Some a -> a = eff.eff_attempt
    in
    if matches then undo_effect t ~txn ~op_index eff

let register_waiter t ~blocker w =
  match Hashtbl.find_opt t.waiters blocker with
  | Some l ->
    if
      not
        (List.exists
           (fun w' ->
             w'.waiting_txn = w.waiting_txn
             && w'.waiting_coordinator = w.waiting_coordinator)
           !l)
    then l := w :: !l
  | None -> Hashtbl.replace t.waiters blocker (ref [ w ])

let take_waiters t ~blocker =
  match Hashtbl.find_opt t.waiters blocker with
  | Some l ->
    Hashtbl.remove t.waiters blocker;
    !l
  | None -> []

let txn_docs_touched t ~txn =
  match Hashtbl.find_opt t.txn_ops txn with
  | None -> []
  | Some l ->
    List.filter_map
      (fun op_index ->
        match Hashtbl.find_opt t.op_effects (txn, op_index) with
        | Some eff when eff.eff_undo <> [] -> Some eff.eff_doc
        | _ -> None)
      !l
    |> List.sort_uniq compare

(* The redo list a Prepared WAL record carries: this transaction's update
   operations here, oldest first, in their wire (textual) form. Queries are
   omitted — replaying them would change nothing. *)
let txn_redo t ~txn =
  match Hashtbl.find_opt t.txn_ops txn with
  | None -> []
  | Some l ->
    List.rev !l
    |> List.filter_map (fun op_index ->
        match Hashtbl.find_opt t.op_effects (txn, op_index) with
        | Some eff when eff.eff_undo <> [] ->
          Some (eff.eff_doc, Op.to_string eff.eff_op)
        | _ -> None)

(* Recovery commit: the volatile effects died with the crash, so re-apply
   the durable redo list against the recovered (last-committed) replicas
   and persist the result — the write-back the lost commit would have
   done. *)
let replay_redo t redo =
  let rec go touched = function
    | [] -> Ok touched
    | (doc_name, op_text) :: rest -> (
      match Protocol.doc t.protocol doc_name with
      | None -> Error (Printf.sprintf "redo: no replica of %s" doc_name)
      | Some doc -> (
        match Op.parse op_text with
        | Error e -> Error (Printf.sprintf "redo: bad operation %S: %s" op_text e)
        | Ok op -> (
          match Exec.apply doc op with
          | Error e ->
            Error
              (Printf.sprintf "redo: %s failed: %s" op_text
                 (Exec.error_to_string e))
          | Ok effect ->
            Protocol.note_applied t.protocol ~doc:doc_name effect.Exec.dg;
            go (List.sort_uniq compare (doc_name :: touched)) rest)))
  in
  match go [] redo with
  | Error _ as e -> e
  | Ok touched ->
    List.iter
      (fun doc_name ->
        match Protocol.doc t.protocol doc_name with
        | Some doc -> Storage.store t.storage doc
        | None -> ())
      touched;
    Ok touched

let txn_touched_total t ~txn =
  match Hashtbl.find_opt t.txn_ops txn with
  | None -> 0
  | Some l ->
    List.fold_left
      (fun acc op_index ->
        match Hashtbl.find_opt t.op_effects (txn, op_index) with
        | Some eff when eff.eff_undo <> [] -> acc + eff.eff_touched
        | _ -> acc)
      0 !l

let finish_txn t ~txn ~commit =
  (* Abort: undo this transaction's operations here, newest first
     (Alg. 6 participant side). Commit: write updated documents back to the
     store (Alg. 5 l. 10). *)
  let ops = match Hashtbl.find_opt t.txn_ops txn with Some l -> !l | None -> [] in
  if commit then
    List.iter
      (fun doc_name ->
        match Protocol.doc t.protocol doc_name with
        | Some doc -> Storage.store t.storage doc
        | None -> ())
      (txn_docs_touched t ~txn)
  else
    List.iter (fun op_index -> undo_operation t ~txn ~op_index) ops;
  (* Strict 2PL: everything releases at the end, in both outcomes. *)
  ignore (Table.release_txn t.table ~txn);
  List.iter (fun op_index -> Hashtbl.remove t.op_effects (txn, op_index)) ops;
  Hashtbl.remove t.txn_ops txn;
  Hashtbl.remove t.txn_coords txn;
  Wfg.remove_txn t.wfg txn;
  take_waiters t ~blocker:txn

let note_coordinator t ~txn ~coordinator =
  Hashtbl.replace t.txn_coords txn coordinator

let coordinator_of t ~txn = Hashtbl.find_opt t.txn_coords txn

let wfg_snapshot t = Wfg.copy t.wfg

let wipe_volatile t =
  (* A fresh protocol instance with no documents stands in for lost memory;
     recover_from_storage repopulates it. *)
  List.iter
    (fun name -> Protocol.add_doc t.protocol (Doc.create ~name ~root_label:"#lost"))
    (Protocol.docs t.protocol);
  Table.clear t.table;
  Wfg.clear t.wfg;
  Hashtbl.reset t.op_effects;
  Hashtbl.reset t.txn_ops;
  Hashtbl.reset t.waiters;
  Hashtbl.reset t.txn_coords;
  t.busy_until <- 0.0

let recover_from_storage t =
  List.iter
    (fun name ->
      match Storage.load t.storage name with
      | Some doc -> Protocol.add_doc t.protocol doc
      | None -> ())
    (Storage.list t.storage)
