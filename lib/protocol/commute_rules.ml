module Op = Dtx_update.Op
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Dg = Dtx_dataguide.Dataguide
module Doc = Dtx_xml.Doc

type verdict = Commutes | Conflicts | Unknown

let verdict_to_string = function
  | Commutes -> "commutes"
  | Conflicts -> "conflicts"
  | Unknown -> "unknown"

let independent = function Commutes -> true | Conflicts | Unknown -> false

(* The analyzer owns a private protocol instance over private document
   copies: XDGL lock derivation grows the DataGuide for insert targets
   ([Dg.ensure_path] creates count-0 nodes), and that mutation must never
   leak into — or depend on — the cluster being analyzed. Phantom count-0
   nodes only ever widen later footprints, which errs on the side of
   Conflicts. *)
type t = {
  proto : Protocol.t;
  kind : Protocol.kind;
}

let create ~protocol ~docs =
  let proto = Protocol.create protocol in
  List.iter (fun doc -> Protocol.add_doc proto (Doc.clone doc)) docs;
  { proto; kind = protocol }

let guide_version t doc =
  match Protocol.dataguide t.proto doc with
  | Some dg -> Dg.shape_version dg
  | None -> 0

(* Mirror an admitted update onto the analyzer's private replica so its
   DataGuide tracks the structure concurrent transactions are {e about} to
   create: optimistic admission snapshots [guide_version] and a later
   structural mutation past that snapshot fails validation. Failures are
   ignored — the mirror is a conservative superset of what really commits
   (a mutation that never lands can only cause a spurious abort, never a
   missed one). *)
let apply_structural t ~doc op =
  if Op.is_update op then
    match Protocol.doc t.proto doc with
    | None -> ()
    | Some d -> (
      match Dtx_update.Exec.apply d op with
      | Ok eff -> Protocol.note_applied t.proto ~doc eff.Dtx_update.Exec.dg
      | Error _ -> ())

let order_sensitive = function
  | Op.Insert _ | Op.Transpose _ -> true
  | Op.Query _ | Op.Remove _ | Op.Rename _ | Op.Change _ -> false

let footprint t ~doc op =
  match Protocol.lock_requests t.proto ~doc op with
  | Ok (reqs, _) -> Some reqs
  | Error _ -> None

(* The one place the XDGL rules under-approximate an operation's {e read}
   set: INSERT AFTER/BEFORE locks the connect node (the parent) but not the
   target node whose position it reads, so a footprint intersection alone
   would call "INSERT AFTER /x" and "REMOVE /x" commuting. Charge every
   operation a virtual ST on each node its paths resolve to (IS above),
   closing that gap; for operations that already hold a stronger lock there
   the extra ST changes nothing. *)
let virtual_reads t ~doc op =
  match Protocol.dataguide t.proto doc with
  | None -> []
  | Some dg ->
    List.concat_map (Xdgl_rules.reads (Xdgl_rules.guide_view dg)) (Op.paths op)

let lists_conflict = Table.lists_conflict ~compat:Mode.compatible

(* Sibling-order sensitivity: two insertions (or transpose landings) whose
   shared-insert locks (SI/SA/SB — mutually compatible by design) meet on a
   common connect node produce different sibling orders depending on who
   goes first, even though neither blocks the other. *)
let shared_connect fp1 fp2 =
  let ins = function Mode.SI | Mode.SA | Mode.SB -> true | _ -> false in
  List.exists
    (fun (r1, m1) ->
      ins m1
      && List.exists
           (fun (r2, m2) -> ins m2 && Table.compare_resource r1 r2 = 0)
           fp2)
    fp1

(* A prepared operation: footprint and virtual-read set derived once, so
   the O(n^2) pair loops below stop re-deriving locks (a cache probe with
   structural Op hashing) and re-walking the DataGuide per pair. Derivation
   grows the guide for insert targets, so [prepare] first warms every
   operation once — driving the guide to its fixed point — and only then
   snapshots footprints: every pairwise verdict is decided against one
   consistent schema state. *)
type prepared = {
  p_doc : string;
  p_op : Op.t;
  p_fp : (Table.resource * Mode.t) list option;
  p_vr : (Table.resource * Mode.t) list;
}

let prepared_doc p = p.p_doc

let prepare t ops =
  Array.iter (fun (doc, op) -> ignore (footprint t ~doc op)) ops;
  Array.map
    (fun (doc, op) ->
      {
        p_doc = doc;
        p_op = op;
        p_fp = footprint t ~doc op;
        p_vr = virtual_reads t ~doc op;
      })
    ops

let decide_prepared t p1 p2 =
  if p1.p_doc <> p2.p_doc then Commutes
  else if (not (Op.is_update p1.p_op)) && not (Op.is_update p2.p_op) then
    Commutes
  else
    match (p1.p_fp, p2.p_fp) with
    | None, _ | _, None -> Unknown
    | Some fp1, Some fp2 ->
      if lists_conflict (fp1 @ p1.p_vr) (fp2 @ p2.p_vr) then Conflicts
      else if
        order_sensitive p1.p_op && order_sensitive p2.p_op
        && shared_connect fp1 fp2
      then Unknown
      else if
        (* Without a DataGuide (Node2PL/Doc2PL/taDOM lock document nodes)
           there is no schema summary to read positions from, so two
           non-blocking updates on one document cannot be proved
           order-insensitive statically. *)
        Protocol.dataguide t.proto p1.p_doc = None
        && Op.is_update p1.p_op && Op.is_update p2.p_op
      then Unknown
      else Commutes

let decide t o1 o2 =
  match prepare t [| o1; o2 |] with
  | [| p1; p2 |] -> decide_prepared t p1 p2
  | _ -> assert false

let matrix_prepared t ps =
  Array.map (fun p1 -> Array.map (fun p2 -> decide_prepared t p1 p2) ps) ps

let matrix t ops = matrix_prepared t (prepare t ops)

let self_check t ops =
  let ps = prepare t ops in
  let m = matrix_prepared t ps in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun i p1 ->
      Array.iteri
        (fun j p2 ->
          if m.(i).(j) <> m.(j).(i) then
            err "matrix asymmetric at (%d, %d): %s vs %s" i j
              (verdict_to_string m.(i).(j))
              (verdict_to_string m.(j).(i));
          if p1.p_doc = p2.p_doc then
            match (p1.p_fp, p2.p_fp) with
            | Some fp1, Some fp2 ->
              (* Soundness against the mode matrix: a raw lock-mode conflict
                 must never be declared commuting (Unknown is acceptable —
                 it falls back to Conflicts as an independence answer). *)
              if lists_conflict fp1 fp2 && m.(i).(j) = Commutes then
                err
                  "ops %d (%s on %s) and %d (%s on %s) hold conflicting lock \
                   modes yet were declared commuting"
                  i
                  (Op.to_string p1.p_op)
                  p1.p_doc j
                  (Op.to_string p2.p_op)
                  p2.p_doc
            | None, _ | _, None ->
              if m.(i).(j) <> Unknown then
                err "underivable footprint at (%d, %d) must yield unknown" i j)
        ps)
    ps;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
