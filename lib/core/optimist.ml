module Cr = Dtx_protocol.Commute_rules
module Op = Dtx_update.Op

(* One active transaction as the classifier sees it. *)
type entry = {
  e_prepared : Cr.prepared array;  (* per-op footprints, derived at admit *)
  e_flags : bool array;  (* per-op: shipped with the optimistic flag *)
  e_docs : string array;  (* the documents it touches, sorted, distinct *)
  e_writes : bool array;  (* per [e_docs] slot: some operation updates it *)
  e_guides : int array;
      (* per [e_docs] slot: the analyzer's DataGuide version, sampled after
         this transaction's own prepare pass (so its own insert-target
         growth is part of the baseline) *)
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

(* The documents of [ops], sorted and distinct, and per document whether
   some operation updates it. *)
let summarize ops =
  let docs =
    Array.of_list
      (List.sort_uniq String.compare (Array.to_list (Array.map fst ops)))
  in
  let writes = Array.make (Array.length docs) false in
  Array.iter
    (fun (doc, op) ->
      if Op.is_update op then
        for k = 0 to Array.length docs - 1 do
          if String.equal docs.(k) doc then writes.(k) <- true
        done)
    ops;
  (docs, writes)

(* Do two transactions share a document that at least one of them updates?
   A merge over the two sorted summaries. Only such a pair can hold an
   operation pair whose verdict is not [Commutes]: operations on different
   documents commute, and so do two queries. *)
let rec shares_written d1 w1 d2 w2 i j =
  i < Array.length d1
  && j < Array.length d2
  &&
  let c = String.compare d1.(i) d2.(j) in
  if c < 0 then shares_written d1 w1 d2 w2 (i + 1) j
  else if c > 0 then shares_written d1 w1 d2 w2 i (j + 1)
  else w1.(i) || w2.(j) || shares_written d1 w1 d2 w2 (i + 1) (j + 1)

let admit t ~txn ~ops =
  let ps = Cr.prepare t.analyzer ops in
  let docs, writes = summarize ops in
  let flags = Array.make (Array.length ps) true in
  (* An operation ships optimistically only if it commutes with {e every}
     operation of {e every} concurrently active transaction — whether that
     operation ran optimistically or under full locks: a lock-skipping read
     must not slide under a pessimistic writer's exclusive lock either.
     Conversely, an active transaction that already executed operations
     without full locks is invalidated by a conflicting newcomer {e unless}
     it has executed everything: then all its accesses precede all of the
     newcomer's, the dependency can only point old -> new, and its
     optimistic assumption still holds. An active transaction that shares
     no document either side updates is skipped outright: every pairwise
     verdict against it would be [Commutes]. *)
  Hashtbl.iter
    (fun other (e : entry) ->
      if shares_written docs writes e.e_docs e.e_writes 0 0 then
        for i = 0 to Array.length ps - 1 do
          for j = 0 to Array.length e.e_prepared - 1 do
            match Cr.decide_prepared e.e_prepared.(j) ps.(i) with
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
                       txn other)
          done
        done)
    t.active;
  (* Mirror this transaction's updates onto the analyzer replica {e before}
     snapshotting guide versions: its own insert-target growth is part of
     its baseline, while any {e later} admission's structural growth
     advances past the snapshot and fails validation. *)
  Array.iter (fun (doc, op) -> Cr.apply_structural t.analyzer ~doc op) ops;
  Hashtbl.replace t.active txn
    { e_prepared = ps; e_flags = flags; e_docs = docs; e_writes = writes;
      e_guides = Array.map (Cr.guide_version t.analyzer) docs;
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
        && Array.exists2
             (fun d v -> Cr.guide_version t.analyzer d > v)
             e.e_docs e.e_guides
      then
        Error
          "a concurrent structural mutation advanced the DataGuide past \
           this transaction's admission snapshot"
      else Ok ())

let remove t ~txn = Hashtbl.remove t.active txn
