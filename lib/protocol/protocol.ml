module Doc = Dtx_xml.Doc
module Dg = Dtx_dataguide.Dataguide
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table

(* The closed protocol set. Constructor order is the order of [all], which
   sweeps, the certifier's report and the explorer's random draws follow.
   A new protocol is one more constructor: every [match] below is
   exhaustive, so the compiler points at each arm it needs. *)
type kind = Xdgl | Node2pl | Doc2pl | Tadom | Xdgl_value | Commute

let all = [ Xdgl; Node2pl; Doc2pl; Tadom; Xdgl_value; Commute ]

let xdgl = Xdgl
let node2pl = Node2pl
let doc2pl = Doc2pl
let tadom = Tadom
let xdgl_value = Xdgl_value
let commute = Commute

let kind_to_string = function
  | Xdgl -> "XDGL"
  | Node2pl -> "Node2PL"
  | Doc2pl -> "Doc2PL"
  | Tadom -> "taDOM"
  | Xdgl_value -> "XDGL+VL"
  | Commute -> "Commute"

(* Display names and aliases, case-insensitively. A repeated key is an
   unused match case, which the build rejects. *)
let kind_of_string s =
  match String.lowercase_ascii s with
  | "xdgl" -> Some Xdgl
  | "node2pl" -> Some Node2pl
  | "doc2pl" -> Some Doc2pl
  | "tadom" -> Some Tadom
  | "xdgl+vl" | "xdgl-vl" | "xdglvl" -> Some Xdgl_value
  | "commute" | "xdgl+commute" -> Some Commute
  | _ -> None

let uses_dataguide = function
  | Xdgl | Xdgl_value | Commute -> true
  | Node2pl | Doc2pl | Tadom -> false

(* Value-lock derivation (XDGL+VL) reads document text, which changes
   without a DataGuide version bump, so it cannot share XDGL's cache. *)
let caches_derivations = function
  | Xdgl | Commute -> true
  | Node2pl | Doc2pl | Tadom | Xdgl_value -> false

(* Optimistic commutativity on top of XDGL: per-site lock derivation is
   exactly XDGL's (the fallback path), and the optimistic skip/downgrade
   plus commit-time validation live in the coordinator (see
   {!Commute_rules} and lib/core). *)
let needs_validation = function
  | Commute -> true
  | Xdgl | Node2pl | Doc2pl | Tadom | Xdgl_value -> false

(* ------------------------------------------------------------------ *)
(* Instances                                                          *)

(* A document replica with the DataGuide its kind maintains over it
   ([Some] exactly when [uses_dataguide]). *)
type replica = { doc : Doc.t; guide : Dg.t option }

let counted requests = Ok (requests, List.length requests)

let derive kind r op =
  match (kind, r.guide) with
  | (Xdgl | Commute), Some dg ->
    counted (Xdgl_rules.requests (Xdgl_rules.guide_view dg) op)
  | Xdgl_value, Some dg -> counted (Xdgl_value_rules.requests dg r.doc op)
  | (Xdgl | Commute | Xdgl_value), None ->
    Error
      (Printf.sprintf "%s: no DataGuide for %s" (kind_to_string kind)
         r.doc.Doc.name)
  | Node2pl, _ -> Ok (Node2pl_rules.requests r.doc op)
  | Tadom, _ -> counted (Xdgl_rules.requests (Xdgl_rules.instance_view r.doc) op)
  | Doc2pl, _ ->
    (* One lock on the whole document: pseudo-node 0. *)
    let mode = if Op.is_update op then Mode.X else Mode.ST in
    Ok ([ (Table.resource r.doc.Doc.name 0, mode) ], 1)

(* Memoized lock derivation for kinds with [caches_derivations]: the
   requests for an operation depend only on the operation itself and the
   DataGuide's current state, so they are cached per (doc, op) and validated
   against the guide's version counter. Insert-family derivations may
   themselves extend the guide (ensure_path on fresh label paths), so the
   version is sampled {e after} deriving: a later identical call finds those
   nodes in place and reproduces the same set. *)
type cache_entry = {
  c_version : int;
  c_requests : (Table.resource * Mode.t) list;
  c_processed : int;
}

let cache_capacity = 4096

type t = {
  kind : kind;
  replicas : (string, replica) Hashtbl.t;
  derivations : (string * Op.t, cache_entry) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create kind =
  { kind;
    replicas = Hashtbl.create 8;
    derivations = Hashtbl.create 256;
    cache_hits = 0;
    cache_misses = 0 }

let add_doc t (doc : Doc.t) =
  let guide = if uses_dataguide t.kind then Some (Dg.build doc) else None in
  Hashtbl.replace t.replicas doc.Doc.name { doc; guide };
  (* A rebuilt guide restarts its version counter; drop every memo rather
     than risk a stale entry whose version coincides. *)
  Hashtbl.reset t.derivations

let cache_stats t = (t.cache_hits, t.cache_misses)

let doc t name =
  match Hashtbl.find t.replicas name with
  | r -> Some r.doc
  | exception Not_found -> None

let docs t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.replicas []
  |> List.sort compare

let lock_requests t ~doc:doc_name op =
  match Hashtbl.find_opt t.replicas doc_name with
  | None ->
    Error
      (Printf.sprintf "%s: unknown document %s" (kind_to_string t.kind)
         doc_name)
  | Some ({ guide = Some g; _ } as r) when caches_derivations t.kind -> (
    let key = (doc_name, op) in
    match Hashtbl.find_opt t.derivations key with
    | Some ce when ce.c_version = Dg.version g ->
      t.cache_hits <- t.cache_hits + 1;
      Ok (ce.c_requests, ce.c_processed)
    | _ -> (
      t.cache_misses <- t.cache_misses + 1;
      match derive t.kind r op with
      | Error _ as e -> e
      | Ok (requests, processed) ->
        if Hashtbl.length t.derivations >= cache_capacity then
          Hashtbl.reset t.derivations;
        Hashtbl.replace t.derivations key
          { c_version = Dg.version g;
            c_requests = requests;
            c_processed = processed };
        Ok (requests, processed)))
  | Some r ->
    (* Uncached kinds still count each derivation as a miss, so
       [cache_stats] reports derivation volume for every protocol. *)
    t.cache_misses <- t.cache_misses + 1;
    derive t.kind r op

let dataguide t doc_name =
  match Hashtbl.find t.replicas doc_name with
  | r -> r.guide
  | exception Not_found -> None

let note_applied t ~doc:doc_name deltas =
  match dataguide t doc_name with
  | None -> ()
  | Some dg ->
    List.iter
      (fun delta ->
        match delta with
        | Exec.Dg_add path -> ignore (Dg.add_instance dg path)
        | Exec.Dg_remove path -> Dg.remove_instance dg path)
      deltas

let structure_size t doc_name =
  match Hashtbl.find_opt t.replicas doc_name with
  | None -> 0
  | Some r -> (
    match t.kind with
    | Doc2pl -> 1
    | Node2pl | Tadom -> Doc.size r.doc
    | Xdgl | Xdgl_value | Commute -> (
      match r.guide with Some g -> Dg.size g | None -> 0))
