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

(* A prepared operation: its footprint and virtual-read set derived once and
   compiled into one slot per distinct resource, in ascending resource
   order. [p_modes.(i)] packs the union of the mode bits held on
   [p_res.(i)] (low [mode_bits]) with the union of those modes' conflict
   masks (the next [mode_bits]), so a pairwise verdict is one merge of two
   sorted arrays with an AND per shared resource, and allocates nothing.
   Derivation grows the guide for insert targets, so [prepare] first warms
   every operation once — driving the guide to its fixed point — and only
   then snapshots footprints: every pairwise verdict is decided against one
   consistent schema state. *)
type prepared = {
  p_doc : string;
  p_update : bool;
  p_order_sensitive : bool;
  p_has_guide : bool;
  p_derived : bool;  (* false: no footprint (unknown document) *)
  p_res : int array;
  p_modes : int array;
}

let mode_bits = 8

(* Shared-insert modes: mutually compatible by design, so they never
   collide, but two of them on one connect node fix a sibling order. The
   virtual reads are ST/IS only, so these bits come from the footprint. *)
let insert_bits = Mode.(bit SI lor bit SA lor bit SB)

let rec fill_keys keys i = function
  | [] -> i
  | (r, m) :: rest ->
    keys.(i) <- ((r : Table.resource :> int) lsl 3) lor Mode.index m;
    fill_keys keys (i + 1) rest

(* Sort the (resource, mode) pairs as single-int keys (the resource is below
   2^59, so [lsl 3] keeps it positive), then fold each run of one resource
   into one slot. *)
let compile fp vr =
  let keys = Array.make (List.length fp + List.length vr) 0 in
  ignore (fill_keys keys (fill_keys keys 0 fp) vr);
  Array.sort (fun (a : int) b -> compare a b) keys;
  let opens_slot i = i = 0 || keys.(i) lsr 3 <> keys.(i - 1) lsr 3 in
  let n = ref 0 in
  for i = 0 to Array.length keys - 1 do
    if opens_slot i then incr n
  done;
  let res = Array.make !n 0 and modes = Array.make !n 0 in
  let slot = ref (-1) in
  for i = 0 to Array.length keys - 1 do
    if opens_slot i then begin
      incr slot;
      res.(!slot) <- keys.(i) lsr 3
    end;
    let m = Mode.of_index (keys.(i) land 7) in
    modes.(!slot) <-
      modes.(!slot) lor Mode.bit m lor (Mode.conflict_mask m lsl mode_bits)
  done;
  (res, modes)

let prepare t ops =
  Array.iter (fun (doc, op) -> ignore (footprint t ~doc op)) ops;
  Array.map
    (fun (doc, op) ->
      let derived, (res, modes) =
        match footprint t ~doc op with
        | Some fp -> (true, compile fp (virtual_reads t ~doc op))
        | None -> (false, ([||], [||]))
      in
      {
        p_doc = doc;
        p_update = Op.is_update op;
        p_order_sensitive = order_sensitive op;
        p_has_guide = Protocol.dataguide t.proto doc <> None;
        p_derived = derived;
        p_res = res;
        p_modes = modes;
      })
    ops

type contact = Disjoint | Shared_insert | Collision

(* One merge over two compiled footprints: [Collision] as soon as a shared
   resource carries incompatible modes (one side's conflict masks, shifted
   down, against the other's held bits; [conflict_mask] is symmetric, so one
   direction suffices), else [Shared_insert] if some shared resource carries
   a shared-insert mode on both sides. *)
let rec contact r1 m1 r2 m2 i j shared_insert =
  if i >= Array.length r1 || j >= Array.length r2 then
    if shared_insert then Shared_insert else Disjoint
  else
    let a = r1.(i) and b = r2.(j) in
    if a < b then contact r1 m1 r2 m2 (i + 1) j shared_insert
    else if a > b then contact r1 m1 r2 m2 i (j + 1) shared_insert
    else
      let x = m1.(i) and y = m2.(j) in
      if (x lsr mode_bits) land y <> 0 then Collision
      else
        contact r1 m1 r2 m2 (i + 1) (j + 1)
          (shared_insert
          || (x land insert_bits <> 0 && y land insert_bits <> 0))

let decide_prepared p1 p2 =
  if not (String.equal p1.p_doc p2.p_doc) then Commutes
  else if (not p1.p_update) && not p2.p_update then Commutes
  else if not (p1.p_derived && p2.p_derived) then Unknown
  else
    match contact p1.p_res p1.p_modes p2.p_res p2.p_modes 0 0 false with
    | Collision -> Conflicts
    | Shared_insert when p1.p_order_sensitive && p2.p_order_sensitive ->
      (* Two insertions (or transpose landings) whose shared-insert locks
         meet on a common connect node produce different sibling orders
         depending on who goes first, even though neither blocks the
         other. *)
      Unknown
    | Disjoint | Shared_insert ->
      (* Without a DataGuide (Node2PL/Doc2PL/taDOM lock document nodes)
         there is no schema summary to read positions from, so two
         non-blocking updates on one document cannot be proved
         order-insensitive statically. *)
      if (not p1.p_has_guide) && p1.p_update && p2.p_update then Unknown
      else Commutes

let decide t o1 o2 =
  match prepare t [| o1; o2 |] with
  | [| p1; p2 |] -> decide_prepared p1 p2
  | _ -> assert false

let matrix_prepared ps =
  Array.map (fun p1 -> Array.map (fun p2 -> decide_prepared p1 p2) ps) ps

let matrix t ops = matrix_prepared (prepare t ops)

let self_check t ops =
  let ps = prepare t ops in
  let m = matrix_prepared ps in
  (* [prepare] left the guide at its fixed point, so these are the very
     footprints the compiled verdicts were decided from. *)
  let fps = Array.map (fun (doc, op) -> footprint t ~doc op) ops in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  Array.iteri
    (fun i (doc1, op1) ->
      Array.iteri
        (fun j (doc2, op2) ->
          if m.(i).(j) <> m.(j).(i) then
            err "matrix asymmetric at (%d, %d): %s vs %s" i j
              (verdict_to_string m.(i).(j))
              (verdict_to_string m.(j).(i));
          if doc1 = doc2 then
            match (fps.(i), fps.(j)) with
            | Some fp1, Some fp2 ->
              (* Soundness against the mode matrix: a raw lock-mode conflict
                 must never be declared commuting (Unknown is acceptable —
                 it falls back to Conflicts as an independence answer). *)
              if
                Table.lists_conflict ~compat:Mode.compatible fp1 fp2
                && m.(i).(j) = Commutes
              then
                err
                  "ops %d (%s on %s) and %d (%s on %s) hold conflicting lock \
                   modes yet were declared commuting"
                  i (Op.to_string op1) doc1 j (Op.to_string op2) doc2
            | None, _ | _, None ->
              if m.(i).(j) <> Unknown then
                err "underivable footprint at (%d, %d) must yield unknown" i j)
        ops)
    ops;
  match !errors with [] -> Ok () | es -> Error (List.rev es)
