(** Strong DataGuides (Goldman & Widom, VLDB '97) for tree-shaped XML.

    A DataGuide is a summary tree with exactly one node per distinct label
    path of the document. For trees it is a trie of label paths, so it is
    typically orders of magnitude smaller than the document — which is
    precisely why XDGL locks DataGuide nodes instead of document nodes: a
    query or update needs locks proportional to the number of distinct label
    paths it touches, not the number of matching document nodes.

    Each DataGuide node keeps a [target_count]: how many document nodes map
    to this label path. Counts are maintained incrementally as the document
    is updated, and a node whose count drops to zero stays in place: locks
    may still reference it. *)

type node = {
  dg_id : int;  (** unique within one DataGuide *)
  label : string;
  parent : node option;
  children : (string, node) Hashtbl.t;  (** label → child *)
  mutable target_count : int;  (** document nodes mapping here *)
}

type t = {
  doc_name : string;
  root : node;
  by_id : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable version : int;
      (** bumped on every mutation (node creation, instance count change)
          — lock-derivation caches key on it *)
  mutable shape_version : int;
      (** bumped only when the trie's {e shape} changes — a node created,
          i.e. a label path appearing. Instance-count changes on existing
          paths leave it alone. *)
}

val build : Dtx_xml.Doc.t -> t
(** [build doc] constructs the strong DataGuide of [doc]. *)

val version : t -> int
(** Monotonic mutation counter: changes whenever the trie's structure or any
    [target_count] changes, so a cached value derived from the DataGuide is
    valid iff the version it was computed at is still current. *)

val shape_version : t -> int
(** Monotonic {e shape} counter: changes only when a label path appears —
    the only mutation that can change which DataGuide nodes a
    path expression resolves to. The optimistic protocol's validation
    snapshots this: footprints derived before a shape change may be stale,
    while instance-count churn on existing paths cannot invalidate them. *)

val size : t -> int
(** Number of DataGuide nodes (distinct label paths). *)

val find_path : t -> string list -> node option
(** [find_path g labels] looks up the node for a root-to-node label path
    (the first label must be the root's). *)

val ensure_path : t -> string list -> node
(** Like {!find_path} but creates missing nodes (with zero counts) along the
    way. @raise Invalid_argument if the first label differs from the root. *)

val add_instance : t -> string list -> node
(** [add_instance g labels] registers one more document node at this label
    path (creating DataGuide nodes as needed) and returns its node. *)

val remove_instance : t -> string list -> unit
(** Inverse of {!add_instance}. @raise Invalid_argument if the path is
    unknown or its count is already zero. *)

val add_subtree : t -> Dtx_xml.Node.t -> unit
(** Register every node of a document subtree (used after an insert). *)

val ancestors : node -> node list
(** Ancestors from parent up to the root, nearest first. *)

val descendants_or_self : node -> node list
(** The DataGuide subtree under a node, in preorder. *)

val label_path : node -> string list
(** Root-to-node labels. *)

val match_path : t -> Dtx_xpath.Ast.path -> node list
(** [match_path g p] is the set of DataGuide nodes whose label paths can
    match [p] {e structurally} — predicates are ignored (a predicate can only
    narrow the document result, and locks must cover every node the query
    might inspect). This is XDGL's lock-target computation for the main
    path. *)

val validate : t -> Dtx_xml.Doc.t -> (unit, string) result
(** Check that the DataGuide is exactly the strong DataGuide of [doc]: every
    document label path present with the right count, and no extra non-zero
    counts. *)

val pp : Format.formatter -> t -> unit
(** Multi-line tree rendering, mirroring the paper's Fig. 5. *)
