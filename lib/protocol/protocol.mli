(** Pluggable concurrency-control protocols.

    The paper stresses that DTX "was conceived in a flexible fashion, so that
    other concurrency control protocols can be employed" — its own evaluation
    swaps XDGL for Node2PL while keeping every other DTX component. This
    module is that seam. The protocol set is {e closed}: a {!kind} is one of
    six values, and its rules, display name, lookup aliases and the
    structure it maintains are decided here by exhaustive matches, so a new
    protocol is one more constructor and the compiler names every arm it
    needs. A protocol {e instance} ({!t}) owns a site's document replicas
    plus whatever lock-representation structure the kind needs (a DataGuide
    for the XDGL family, nothing extra for the tree/document protocols), and
    translates each operation into the list of (resource, mode) lock
    requests its rules demand. The lock table, scheduler, network and
    deadlock detector are shared by all protocols.

    Six protocols are built in:
    - {b XDGL} ({!xdgl}) — the paper's protocol: multi-granularity locks on
      DataGuide nodes: the rule table {!Xdgl_rules.requests} over
      {!Xdgl_rules.guide_view}.
    - {b Node2PL} ({!node2pl}) — tree locks on {e document} nodes: an
      operation locks the whole subtree it touches, node by node, which is
      what the paper uses to stand in for related work ("locks in trees").
    - {b Doc2PL} ({!doc2pl}) — the "traditional technique" of §3.2: one lock
      for the entire document.
    - {b taDOM} ({!tadom}) — the future-work extension (§5): taDOM-style
      multi-granularity locks on document nodes with intention-locked
      ancestor paths: the same rule table over
      {!Xdgl_rules.instance_view}, where predicates select exactly and new
      content has no landing node to lock (the mode mapping is in
      {!Xdgl_rules}).
    - {b XDGL+VL} ({!xdgl_value}) — XDGL with the original paper's value
      locks for predicates: the rule table over the guide view for the
      predicate-free operation, plus (node, value) locks (see
      {!Xdgl_value_rules}).
    - {b Commute} ({!commute}) — optimistic commutativity over XDGL
      (Dekeyser et al., arXiv cs/0505074): per-site derivation is exactly
      XDGL's, but the coordinator skips or intention-downgrades locks for
      operations the static analysis proves commuting, and validates the
      optimistic assumption at commit time (see {!Commute_rules}). *)

type kind
(** One of the six protocols below. Structural equality ([=]) is safe. *)

val all : kind list
(** Every protocol, in the order sweeps, reports and random draws use:
    XDGL, Node2PL, Doc2PL, taDOM, XDGL+VL, Commute. *)

val kind_to_string : kind -> string
(** The display name. *)

val kind_of_string : string -> kind option
(** The kind whose display name or alias this is, case-insensitively
    (aliases: [xdgl-vl] and [xdglvl] for XDGL+VL, [xdgl+commute] for
    Commute). *)

val uses_dataguide : kind -> bool
(** Instances build and maintain a DataGuide per document (XDGL, XDGL+VL,
    Commute). *)

val needs_validation : kind -> bool
(** Optimistic: the coordinator must run a commutativity classifier and a
    commit-time validation phase (Commute). *)

val xdgl : kind
val node2pl : kind
val doc2pl : kind
val tadom : kind
val xdgl_value : kind
val commute : kind

type t

val create : kind -> t
(** A fresh protocol instance managing no documents yet. *)

val add_doc : t -> Dtx_xml.Doc.t -> unit
(** Hand a document replica to the instance (builds the DataGuide for kinds
    with {!uses_dataguide}). Replaces any same-named document. *)

val doc : t -> string -> Dtx_xml.Doc.t option

val docs : t -> string list
(** Names of managed documents, sorted. *)

val lock_requests :
  t -> doc:string -> Dtx_update.Op.t ->
  ((Dtx_locks.Table.resource * Dtx_locks.Mode.t) list * int, string) result
(** [(requests, processed)] — the deduplicated lock set this operation must
    {e hold} on [doc] under this protocol, plus the number of lock requests
    the LockManager {e processes} to compute it ([processed >= length
    requests]). For Node2PL the two differ: navigation lock-couples through
    every node the evaluation visits (paying per-visit lock processing) but
    retains only the target path/subtree locks. [Error _] if the document
    is unknown. An empty list is possible (the operation cannot touch
    anything here, e.g. its path matches nothing). *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the instance's lock-derivation cache. XDGL and
    Commute memoize the request set per (doc, op) against the DataGuide's
    version counter, so repeated operations over a stable guide skip the
    ancestor/predicate re-walk; kinds without a cache count every
    derivation as a miss, so [hits + misses] is the number of derivations
    performed for every protocol (no kind silently reports zeros). *)

val note_applied : t -> doc:string -> Dtx_update.Exec.dg_delta list -> unit
(** Maintain the protocol's lock-representation structure after an operation
    (or an undo) changed the document. No-op for kinds without a
    DataGuide. *)

val structure_size : t -> string -> int
(** Size of the lock-representation structure for [doc]: DataGuide nodes for
    the XDGL family, document nodes for Node2PL/taDOM, 1 for Doc2PL. This is
    the "summarized data structure" advantage the paper measures
    indirectly. *)

val dataguide : t -> string -> Dtx_dataguide.Dataguide.t option
(** The DataGuide backing [doc] ({!uses_dataguide} kinds only; [None]
    otherwise). Exposed for tests and for the examples that print
    Fig.-5-style views. *)
