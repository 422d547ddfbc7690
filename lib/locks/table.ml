module Intern = Dtx_util.Intern

(* A resource is a packed int: | doc_id:11 | value_id:20 | node:28 |, 59 bits.
   value_id 0 means "no value dimension"; interned value ids are stored
   shifted by one. Packing keeps 3 low bits spare so a (resource, mode) pair
   also fits one int (see [request_key]) and request lists dedupe with a
   plain integer sort. Doc names and lock values are process-global interned
   symbols: every table in a simulated cluster shares the same bijection,
   which costs nothing and keeps resources directly comparable across
   sites. 11 doc bits allow the 1000+ fragment documents a thousand-site
   scale run creates (7 bits capped runs at 128 sites). *)
type resource = int

let node_bits = 28
let value_bits = 20
let doc_bits = 11
let node_limit = 1 lsl node_bits
let value_limit = (1 lsl value_bits) - 1
let doc_limit = 1 lsl doc_bits
let node_mask = node_limit - 1
let value_mask = (1 lsl value_bits) - 1

let doc_syms = Intern.create ~max_ids:doc_limit "document name"
let value_syms = Intern.create ~max_ids:value_limit "lock value"

(* Single-entry memo for the doc-name intern: derivation emits long runs of
   resources for the same physically-equal doc-name string, so the common
   case skips the string hash entirely. *)
let last_doc = ref ("", -1)

let doc_id doc =
  let d, id = !last_doc in
  if doc == d then id
  else begin
    let id = Intern.intern doc_syms doc in
    last_doc := (doc, id);
    id
  end

let resource doc node =
  if node < 0 || node >= node_limit then
    invalid_arg (Printf.sprintf "Table.resource: node id %d out of range" node);
  (doc_id doc lsl (node_bits + value_bits)) lor node

let value_resource doc node value =
  resource doc node lor ((Intern.intern value_syms value + 1) lsl node_bits)

let resource_doc r = Intern.lookup doc_syms (r lsr (node_bits + value_bits))

let resource_node r = r land node_mask

let resource_value r =
  match (r lsr node_bits) land value_mask with
  | 0 -> None
  | v -> Some (Intern.lookup value_syms (v - 1))

let compare_resource (a : resource) (b : resource) = compare a b

let pp_resource ppf r =
  match resource_value r with
  | None -> Format.fprintf ppf "%s#%d" (resource_doc r) (resource_node r)
  | Some v -> Format.fprintf ppf "%s#%d=%S" (resource_doc r) (resource_node r) v

let request_key r mode = (r lsl 3) lor Mode.index mode

let dedup_requests reqs =
  match reqs with
  | [] | [ _ ] -> reqs
  | _ ->
    List.rev_map (fun (r, m) -> request_key r m) reqs
    |> List.sort_uniq (fun (a : int) b -> compare a b)
    |> List.map (fun k -> (k lsr 3, Mode.of_index (k land 7)))

(* Int-keyed hashtable with a multiplicative mixer: no polymorphic hashing
   anywhere on the grant/conflict path. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash x = (x * 0x2545F4914F6CDD1D) land max_int
end)

(* One grant: a transaction holding [mode] on a resource, reference-counted
   (the same operation may request the same lock several times, e.g. IS on a
   shared ancestor of two targets). *)
type holder = {
  txn : int;
  mode : Mode.t;
  mutable count : int;
}

(* [mask] is the union of the mode bits of every holder (the requester's own
   included); the common no-conflict acquire answers with one AND against it
   and never scans [holders]. *)
type entry = {
  mutable holders : holder list;
  mutable mask : int;
}

type release_kind = Undo | End_of_txn

type event =
  | Acquired of { txn : int; resource : resource; mode : Mode.t }
  | Released of {
      txn : int;
      resource : resource;
      mode : Mode.t;
      count : int;
      kind : release_kind;
    }
  | Cleared

let pp_event ppf = function
  | Acquired { txn; resource; mode } ->
    Format.fprintf ppf "t%d acquires %s on %a" txn (Mode.to_string mode)
      pp_resource resource
  | Released { txn; resource; mode; count; kind } ->
    Format.fprintf ppf "t%d releases %s on %a (x%d, %s)" txn
      (Mode.to_string mode) pp_resource resource count
      (match kind with Undo -> "undo" | End_of_txn -> "end")
  | Cleared -> Format.fprintf ppf "lock table cleared"

(* A transaction's lock footprint, in grant order: parallel arrays of the
   resource and its table entry. Append-only arrays beat a per-transaction
   hash set on the grant path (one bounds check and two stores per new
   resource, no table allocation per transaction), and carrying the entry
   pointer — valid for the table's lifetime, since released entries remain
   as tombstones — lets the release walk skip the entry-map probe
   entirely. Slots may go stale: an undo leaves the resource in the array,
   and re-acquiring it later appends it again, so the release walk must
   tolerate resources the transaction no longer holds (it strips holders by
   txn, and a stale visit simply finds none). *)
type txn_locks = {
  mutable rs : int array;
  mutable es : entry array;
  mutable n : int;
}

type t = {
  entries : entry Itbl.t;  (* resource -> entry; only [clear] deletes *)
  by_txn : txn_locks Itbl.t;  (* txn -> its resources, in grant order *)
  mutable grants : int;
  mutable tracer : (event -> unit) option;
  (* Preallocated scratch for [acquire_all]'s conflict pass: blocker txn
     ids land here instead of a consed list, so the (overwhelmingly common)
     no-conflict batch allocates nothing at all. *)
  mutable conflict_scratch : int array;
}

let create () =
  { entries = Itbl.create 16;
    by_txn = Itbl.create 64;
    grants = 0;
    tracer = None;
    conflict_scratch = Array.make 16 0 }

let dummy_entry = { holders = []; mask = 0 }

let txn_locks t txn =
  match Itbl.find t.by_txn txn with
  | l -> l
  | exception Not_found ->
    let l = { rs = Array.make 8 0; es = Array.make 8 dummy_entry; n = 0 } in
    Itbl.replace t.by_txn txn l;
    l

let push_lock (l : txn_locks) r e =
  if l.n >= Array.length l.rs then begin
    let n = Array.length l.rs in
    let rs = Array.make (2 * n) 0 in
    let es = Array.make (2 * n) dummy_entry in
    Array.blit l.rs 0 rs 0 l.n;
    Array.blit l.es 0 es 0 l.n;
    l.rs <- rs;
    l.es <- es
  end;
  l.rs.(l.n) <- r;
  l.es.(l.n) <- e;
  l.n <- l.n + 1

let set_tracer t tr = t.tracer <- tr

(* [Itbl.find] + [Not_found] rather than [find_opt]: the exception is a
   preallocated constant, the [Some] box is a fresh two-word block per
   probe — and these probes run once per grant and once per release. *)
let entry t r =
  match Itbl.find t.entries r with
  | e -> e
  | exception Not_found ->
    let e = { holders = []; mask = 0 } in
    Itbl.replace t.entries r e;
    e

(* Read-only lookup: an absent resource reads as the never-mutated empty
   [dummy_entry], which answers every query correctly. *)
let find_entry t r =
  match Itbl.find t.entries r with e -> e | exception Not_found -> dummy_entry

let recompute_mask e =
  e.mask <- List.fold_left (fun m h -> m lor Mode.bit h.mode) 0 e.holders

let rec find_holder holders txn (mode : Mode.t) =
  match holders with
  | [] -> None
  | h :: rest ->
    if h.txn = txn && h.mode = mode then Some h else find_holder rest txn mode

let ungrant t ~txn r mode =
  let e = find_entry t r in
  match find_holder e.holders txn mode with
  | None -> ()
  | Some h ->
    h.count <- h.count - 1;
    t.grants <- t.grants - 1;
    (match t.tracer with
     | Some tr ->
       tr (Released { txn; resource = r; mode; count = 1; kind = Undo })
     | None -> ());
    if h.count = 0 then begin
      e.holders <- List.filter (fun h' -> not (h' == h)) e.holders;
      (* The entry stays (as an empty tombstone) and so does the resource in
         the transaction's footprint array: both are reused on the next
         acquire, and [release_txn] partitions holders by txn, so visiting
         an entry the transaction no longer owns — even one that belongs to
         someone else by then — is a no-op. *)
      recompute_mask e
    end

(* [Ok ()] preallocated: the grant path returns it thousands of times per
   simulated second and must not cons a fresh block each time. *)
let ok_unit : (unit, int list) result = Ok ()

let push_conflict t n txn =
  if n >= Array.length t.conflict_scratch then begin
    let bigger = Array.make (2 * Array.length t.conflict_scratch) 0 in
    Array.blit t.conflict_scratch 0 bigger 0 n;
    t.conflict_scratch <- bigger
  end;
  t.conflict_scratch.(n) <- txn;
  n + 1

(* Sorted unique list of the first [n] scratch entries — only ever built on
   the (rare) conflicting path, so it may allocate freely. *)
let scratch_blockers t n =
  let a = Array.sub t.conflict_scratch 0 n in
  Array.sort (fun (x : int) y -> compare x y) a;
  let rec uniq i prev acc =
    if i < 0 then acc
    else
      let x = a.(i) in
      if x = prev then uniq (i - 1) prev acc else uniq (i - 1) x (x :: acc)
  in
  uniq (n - 2) a.(n - 1) [ a.(n - 1) ]

let acquire_all t ~txn requests =
  (* First pass: collect every conflicting transaction without mutating.
     When the request mode is compatible with the entry's mask no holder can
     conflict, so the common uncontended request is one probe and one AND.
     Explicit recursion (no closures), the exception-based probe and the
     table's scratch array keep this pass allocation-free. *)
  let rec scan_holders holders mode n =
    match holders with
    | [] -> n
    | h :: rest ->
      let n =
        if h.txn <> txn && not (Mode.compatible h.mode mode) then
          push_conflict t n h.txn
        else n
      in
      scan_holders rest mode n
  in
  let rec conflict_pass reqs n =
    match reqs with
    | [] -> n
    | (r, mode) :: rest ->
      let e = find_entry t r in
      let n =
        if Mode.mask_compatible mode ~held_mask:e.mask then n
        else scan_holders e.holders mode n
      in
      conflict_pass rest n
  in
  let conflicts = conflict_pass requests 0 in
  if conflicts > 0 then Error (scratch_blockers t conflicts)
  else begin
    (* Grant pass: all requests share [txn], so resolve its footprint array
       once instead of per grant. Iteration is in request order, which is
       the order of the traced Acquired events. A resource
       joins the footprint only when the transaction gains its first holder
       on it (refcount bumps and extra modes reuse the existing slot). *)
    let locks = txn_locks t txn in
    let rec among holders =
      match holders with
      | [] -> false
      | h :: rest -> h.txn = txn || among rest
    in
    let rec grant_pass reqs =
      match reqs with
      | [] -> ()
      | (r, mode) :: rest ->
        let e = entry t r in
        (match find_holder e.holders txn mode with
         | Some h -> h.count <- h.count + 1
         | None ->
           if not (among e.holders) then push_lock locks r e;
           e.holders <- { txn; mode; count = 1 } :: e.holders;
           e.mask <- e.mask lor Mode.bit mode);
        t.grants <- t.grants + 1;
        (match t.tracer with
         | Some tr -> tr (Acquired { txn; resource = r; mode })
         | None -> ());
        grant_pass rest
    in
    grant_pass requests;
    ok_unit
  end

let release_request t ~txn requests =
  List.iter (fun (r, mode) -> ungrant t ~txn r mode) requests

let release_txn t ~txn =
  match Itbl.find_opt t.by_txn txn with
  | None -> []
  | Some locks ->
    let freed = ref [] in
    (* Walk the footprint in grant order — deterministic and independent of
       the entry map's hashing, so it fixes the order of traced Released
       events. Stale slots (undone or already-visited resources) find no
       holders for [txn] and fall through. *)
    let rec strip r holders kept =
      match holders with
      | [] -> kept
      | h :: rest ->
        if h.txn = txn then begin
          t.grants <- t.grants - h.count;
          (match t.tracer with
           | Some tr ->
             tr
               (Released
                  { txn; resource = r; mode = h.mode; count = h.count;
                    kind = End_of_txn })
           | None -> ());
          strip r rest kept
        end
        else strip r rest (h :: kept)
    in
    for i = 0 to locks.n - 1 do
      let r = locks.rs.(i) in
      let e = locks.es.(i) in
      (* [grants] moves iff [strip] removed one of [txn]'s holders, so it
         doubles as the found-flag without a tuple return. *)
      let g0 = t.grants in
      let kept = strip r e.holders [] in
      if t.grants <> g0 then begin
        freed := r :: !freed;
        e.holders <- kept;
        recompute_mask e
      end
    done;
    Itbl.remove t.by_txn txn;
    !freed

let holders t r = List.map (fun h -> (h.txn, h.mode)) (find_entry t r).holders

let locks_of t ~txn =
  match Itbl.find_opt t.by_txn txn with
  | None -> []
  | Some locks ->
    let acc = ref [] in
    for i = 0 to locks.n - 1 do
      let r = locks.rs.(i) in
      List.iter
        (fun h -> if h.txn = txn then acc := (r, h.mode) :: !acc)
        locks.es.(i).holders
    done;
    (* A re-acquired-after-undo resource can sit in the footprint twice;
       collapse the duplicate pairs. *)
    List.sort_uniq compare !acc

let lock_count t = t.grants

let txn_holds t ~txn r mode =
  List.exists
    (fun h -> h.txn = txn && h.mode = mode && h.count > 0)
    (find_entry t r).holders

let clear t =
  Itbl.reset t.entries;
  Itbl.reset t.by_txn;
  t.grants <- 0;
  match t.tracer with Some tr -> tr Cleared | None -> ()

let lists_conflict ~compat fp1 fp2 =
  let rec collides r1 m1 = function
    | [] -> false
    | (r2, m2) :: rest -> (r1 = r2 && not (compat m1 m2)) || collides r1 m1 rest
  in
  List.exists (fun (r1, m1) -> collides r1 m1 fp2) fp1
