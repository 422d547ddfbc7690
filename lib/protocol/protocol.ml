module Doc = Dtx_xml.Doc
module Dg = Dtx_dataguide.Dataguide
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table

type caps = {
  uses_dataguide : bool;
  caches_derivations : bool;
  needs_validation : bool;
  two_pc_compatible : bool;
}

(* A registered protocol. The record is deliberately closure-free so the
   polymorphic comparisons the call sites use ([kind = kind],
   [Some kind = ...]) stay total; the rules functions live in [impls],
   keyed by [k_id]. *)
type kind = {
  k_id : int;
  k_name : string;
  k_aliases : string list;
  k_caps : caps;
}

type impl = {
  i_derive :
    dg:Dg.t option ->
    Doc.t ->
    Op.t ->
    ((Table.resource * Mode.t) list * int, string) result;
  i_structure : dg:Dg.t option -> Doc.t -> int;
}

let registry : kind list ref = ref []
let by_alias : (string, kind) Hashtbl.t = Hashtbl.create 16
let impls : (int, impl) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0

let register ~name ~aliases ~caps ~derive ~structure () =
  (* Registration is append-only and global: silently shadowing an existing
     name/alias would reroute every later [kind_of_string] (CLI parsing,
     saved configs) to the new entry. Refuse loudly instead. *)
  List.iter
    (fun a ->
      match Hashtbl.find_opt by_alias (String.lowercase_ascii a) with
      | Some prior ->
        invalid_arg
          (Printf.sprintf
             "Protocol.register: alias %S of %S collides with registered \
              protocol %S"
             a name prior.k_name)
      | None -> ())
    (name :: aliases);
  let k =
    { k_id = !next_id; k_name = name; k_aliases = aliases; k_caps = caps }
  in
  incr next_id;
  registry := !registry @ [ k ];
  Hashtbl.replace impls k.k_id { i_derive = derive; i_structure = structure };
  List.iter
    (fun a -> Hashtbl.replace by_alias (String.lowercase_ascii a) k)
    (name :: aliases);
  k

let impl_of k = Hashtbl.find impls k.k_id

let registered () = !registry
let caps k = k.k_caps
let aliases k = k.k_aliases
let kind_to_string k = k.k_name
let kind_of_string s = Hashtbl.find_opt by_alias (String.lowercase_ascii s)

(* ------------------------------------------------------------------ *)
(* Built-in rule functions                                            *)

let xdgl_derive ~dg _d op =
  match dg with
  | None -> Error "XDGL: missing DataGuide"
  | Some dg ->
    let requests = Xdgl_rules.requests (Xdgl_rules.guide_view dg) op in
    Ok (requests, List.length requests)

let xdgl_value_derive ~dg d op =
  match dg with
  | None -> Error "XDGL+VL: missing DataGuide"
  | Some dg ->
    let requests = Xdgl_value_rules.requests dg d op in
    Ok (requests, List.length requests)

let node2pl_derive ~dg:_ d op = Ok (Node2pl_rules.requests d op)
let tadom_derive ~dg:_ d op =
  let requests = Xdgl_rules.requests (Xdgl_rules.instance_view d) op in
  Ok (requests, List.length requests)

let doc2pl_derive ~dg:_ (d : Doc.t) op =
  (* One lock on the whole document: pseudo-node 0. *)
  let mode = if Op.is_update op then Mode.X else Mode.ST in
  Ok ([ (Table.resource d.Doc.name 0, mode) ], 1)

let guide_structure ~dg _d = match dg with Some dg -> Dg.size dg | None -> 0
let doc_structure ~dg:_ d = Doc.size d
let unit_structure ~dg:_ _d = 1

let guide_caps =
  {
    uses_dataguide = true;
    caches_derivations = true;
    needs_validation = false;
    two_pc_compatible = true;
  }

let instance_caps =
  {
    uses_dataguide = false;
    caches_derivations = false;
    needs_validation = false;
    two_pc_compatible = true;
  }

let xdgl =
  register ~name:"XDGL" ~aliases:[ "xdgl" ] ~caps:guide_caps
    ~derive:xdgl_derive ~structure:guide_structure ()

let node2pl =
  register ~name:"Node2PL" ~aliases:[ "node2pl" ] ~caps:instance_caps
    ~derive:node2pl_derive ~structure:doc_structure ()

let doc2pl =
  register ~name:"Doc2PL" ~aliases:[ "doc2pl" ] ~caps:instance_caps
    ~derive:doc2pl_derive ~structure:unit_structure ()

let tadom =
  register ~name:"taDOM" ~aliases:[ "tadom" ] ~caps:instance_caps
    ~derive:tadom_derive ~structure:doc_structure ()

let xdgl_value =
  (* Value-lock derivation reads document text, which changes without a
     DataGuide version bump, so it cannot share XDGL's derivation cache. *)
  register ~name:"XDGL+VL"
    ~aliases:[ "xdgl+vl"; "xdgl-vl"; "xdglvl" ]
    ~caps:{ guide_caps with caches_derivations = false }
    ~derive:xdgl_value_derive ~structure:guide_structure ()

let commute =
  (* Optimistic commutativity on top of XDGL: per-site lock derivation is
     exactly XDGL's (the fallback path), and the optimistic skip/downgrade
     plus commit-time validation live in the coordinator (see
     {!Commute_rules} and lib/core). *)
  register ~name:"Commute"
    ~aliases:[ "commute"; "xdgl+commute" ]
    ~caps:{ guide_caps with needs_validation = true }
    ~derive:xdgl_derive ~structure:guide_structure ()

(* ------------------------------------------------------------------ *)
(* Instances                                                          *)

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
  docs : (string, Doc.t) Hashtbl.t;
  guides : (string, Dg.t) Hashtbl.t;  (* populated when caps.uses_dataguide *)
  derivations : (string * Op.t, cache_entry) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create kind =
  { kind;
    docs = Hashtbl.create 8;
    guides = Hashtbl.create 8;
    derivations = Hashtbl.create 256;
    cache_hits = 0;
    cache_misses = 0 }

let kind t = t.kind

let name t = t.kind.k_name

let add_doc t (doc : Doc.t) =
  Hashtbl.replace t.docs doc.Doc.name doc;
  if t.kind.k_caps.uses_dataguide then begin
    Hashtbl.replace t.guides doc.Doc.name (Dg.build doc);
    (* A rebuilt guide restarts its version counter; drop every memo rather
       than risk a stale entry whose version coincides. *)
    Hashtbl.reset t.derivations
  end

let cache_stats t = (t.cache_hits, t.cache_misses)

let doc t name = Hashtbl.find_opt t.docs name

let docs t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.docs [] |> List.sort compare

let lock_requests t ~doc:doc_name op =
  match Hashtbl.find_opt t.docs doc_name with
  | None -> Error (Printf.sprintf "%s: unknown document %s" (name t) doc_name)
  | Some d -> (
    let k = t.kind in
    let dg =
      if k.k_caps.uses_dataguide then Hashtbl.find_opt t.guides doc_name
      else None
    in
    match (k.k_caps.uses_dataguide, dg) with
    | true, None ->
      Error (Printf.sprintf "%s: no DataGuide for %s" k.k_name doc_name)
    | _, Some g when k.k_caps.caches_derivations -> (
      let key = (doc_name, op) in
      match Hashtbl.find_opt t.derivations key with
      | Some ce when ce.c_version = Dg.version g ->
        t.cache_hits <- t.cache_hits + 1;
        Ok (ce.c_requests, ce.c_processed)
      | _ -> (
        t.cache_misses <- t.cache_misses + 1;
        match (impl_of k).i_derive ~dg d op with
        | Error _ as e -> e
        | Ok (requests, processed) ->
          if Hashtbl.length t.derivations >= cache_capacity then
            Hashtbl.reset t.derivations;
          Hashtbl.replace t.derivations key
            { c_version = Dg.version g;
              c_requests = requests;
              c_processed = processed };
          Ok (requests, processed)))
    | _ ->
      (* Uncached kinds still count each derivation as a miss, so
         [cache_stats] reports derivation volume for every protocol. *)
      t.cache_misses <- t.cache_misses + 1;
      (impl_of k).i_derive ~dg d op)

let note_applied t ~doc:doc_name deltas =
  if t.kind.k_caps.uses_dataguide then
    match Hashtbl.find_opt t.guides doc_name with
    | None -> ()
    | Some dg ->
      List.iter
        (fun delta ->
          match delta with
          | Exec.Dg_add path -> ignore (Dg.add_instance dg path)
          | Exec.Dg_remove path -> Dg.remove_instance dg path)
        deltas

let structure_size t doc_name =
  match Hashtbl.find_opt t.docs doc_name with
  | None -> 0
  | Some d ->
    (impl_of t.kind).i_structure ~dg:(Hashtbl.find_opt t.guides doc_name) d

let dataguide t doc_name =
  if t.kind.k_caps.uses_dataguide then Hashtbl.find_opt t.guides doc_name
  else None
