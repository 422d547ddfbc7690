module Cr = Dtx_protocol.Commute_rules

(* One active transaction as the classifier sees it. *)
type entry = {
  e_prepared : Cr.prepared array;  (* per-op footprints, derived at admit *)
  e_flags : bool array;  (* per-op: shipped with the optimistic flag *)
  e_guides : (string * int) list;
      (* analyzer DataGuide version per touched doc, sampled after this
         transaction's own prepare pass (so its own insert-target growth is
         part of the baseline) *)
  mutable e_executed_all : bool;
  mutable e_invalidated : string option;
}

type t = {
  analyzer : Cr.t;
  active : (int, entry) Hashtbl.t;
}

let create ~protocol ~docs =
  { analyzer = Cr.create ~protocol ~docs;
    active = Hashtbl.create 64 }

let admit t ~txn ~ops =
  let ps = Cr.prepare t.analyzer ops in
  let flags = Array.make (Array.length ps) true in
  (* An operation ships optimistically only if it commutes with {e every}
     operation of {e every} concurrently active transaction — whether that
     operation ran optimistically or under full locks: a lock-skipping read
     must not slide under a pessimistic writer's exclusive lock either.
     Conversely, an active transaction that already executed operations
     without full locks is invalidated by a conflicting newcomer {e unless}
     it has executed everything: then all its accesses precede all of the
     newcomer's, the dependency can only point old -> new, and its
     optimistic assumption still holds. *)
  Hashtbl.iter
    (fun other (e : entry) ->
      Array.iteri
        (fun i p ->
          Array.iteri
            (fun j q ->
              match Cr.decide_prepared t.analyzer q p with
              | Cr.Commutes -> ()
              | Cr.Conflicts | Cr.Unknown ->
                flags.(i) <- false;
                if
                  e.e_flags.(j) && (not e.e_executed_all)
                  && e.e_invalidated = None
                then
                  e.e_invalidated <-
                    Some
                      (Printf.sprintf
                         "operation of t%d conflicts with an optimistically \
                          executed operation of t%d"
                         txn other))
            e.e_prepared)
        ps)
    t.active;
  (* Mirror this transaction's updates onto the analyzer replica {e before}
     snapshotting guide versions: its own insert-target growth is part of
     its baseline, while any {e later} admission's structural growth
     advances past the snapshot and fails validation. *)
  Array.iter (fun (doc, op) -> Cr.apply_structural t.analyzer ~doc op) ops;
  let touched =
    List.sort_uniq compare
      (Array.to_list (Array.map Cr.prepared_doc ps))
  in
  let e_guides =
    List.map (fun d -> (d, Cr.guide_version t.analyzer d)) touched
  in
  Hashtbl.replace t.active txn
    { e_prepared = ps; e_flags = flags; e_guides;
      e_executed_all = false; e_invalidated = None };
  Array.copy flags

let invalidated t ~txn =
  match Hashtbl.find_opt t.active txn with
  | Some e -> e.e_invalidated
  | None -> None

let note_all_executed t ~txn =
  match Hashtbl.find_opt t.active txn with
  | Some e -> e.e_executed_all <- true
  | None -> ()

let validate t ~txn =
  match Hashtbl.find_opt t.active txn with
  | None -> Ok ()
  | Some e -> (
    match e.e_invalidated with
    | Some reason -> Error reason
    | None ->
      if
        Array.exists (fun f -> f) e.e_flags
        && List.exists
             (fun (d, v) -> Cr.guide_version t.analyzer d > v)
             e.e_guides
      then
        Error
          "a concurrent structural mutation advanced the DataGuide past \
           this transaction's admission snapshot"
      else Ok ())

let remove t ~txn = Hashtbl.remove t.active txn
