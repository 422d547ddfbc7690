(** Static pairwise operation commutativity, decided from lock footprints on
    the schema summary — never from document instances.

    Following Dekeyser et al.'s instance-independent view of semistructured
    conflicts (arXiv cs/0505074), two operations commute when their
    statically derived footprints — the (resource, mode) sets
    {!Protocol.lock_requests} computes against the DataGuide — cannot
    interact:

    - {e different documents}: disjoint resource spaces, commute;
    - {e two queries}: reads never conflict;
    - {e lock-mode conflict} on a shared resource (per
      {!Dtx_locks.Mode.compatible}, after charging each operation a virtual
      ST read lock on the nodes its paths resolve to, which closes the
      INSERT AFTER/BEFORE gap where the rules lock the connect node but not
      the position-defining target): [Conflicts];
    - two {e order-sensitive} operations (insert/transpose) whose
      shared-insert locks (SI/SA/SB, mutually compatible by design) meet on
      a common connect node: [Unknown] — they do not block each other but
      produce different sibling orders;
    - otherwise [Commutes].

    [Unknown] is the conservative verdict: consumers needing a yes/no
    independence answer must treat it as [Conflicts] ({!independent} does).
    The analyzer owns a {e private} protocol instance over private document
    copies, because XDGL lock derivation grows the DataGuide for insert
    targets and that mutation must not touch the system under analysis.

    Two consumers share this engine: the schedule explorer's DPOR sleep
    sets and the {!Protocol.commute} runtime protocol, whose coordinator
    classifies each transaction's operations against the concurrently
    active ones and skips or intention-downgrades locks for
    provably-commuting operations. *)

type verdict = Commutes | Conflicts | Unknown

val independent : verdict -> bool
(** [true] only for [Commutes] — [Unknown] conservatively counts as a
    conflict. This is the independence relation the schedule explorer's
    sleep sets are seeded with. *)

type t

val create : protocol:Protocol.kind -> docs:Dtx_xml.Doc.t list -> t
(** [create ~protocol ~docs] builds the analyzer over private deep clones of
    [docs] (same node ids; the analysis instance is never shared with a
    running cluster, or with the caller). *)

val guide_version : t -> string -> int
(** Current {e shape} version of the analyzer's private DataGuide for a
    document (0 if the document is unknown or the protocol keeps no guide):
    it advances only when label paths appear or vanish, the one kind of
    mutation that can stale a derived footprint. The optimistic runtime
    snapshots these at admission and aborts any transaction whose touched
    guides advanced — a concurrent structural mutation introduced schema
    paths the admission-time verdicts never saw. *)

val apply_structural : t -> doc:string -> Dtx_update.Op.t -> unit
(** Mirror an admitted update onto the analyzer's private replica, advancing
    its DataGuide for any novel structure. Queries and failed applications
    are no-ops. The mirror is a conservative superset of what really
    commits: a mutation that never lands can only cause a spurious
    validation abort, never a missed one. *)

val decide :
  t -> string * Dtx_update.Op.t -> string * Dtx_update.Op.t -> verdict
(** [decide t (doc1, op1) (doc2, op2)] — do the operations commute? Purely
    static: only the DataGuide (or, for instance-based protocols, the
    document-node footprint) and the mode matrix are consulted. An
    operation whose footprint cannot be derived (unknown document) yields
    [Unknown]. *)

type prepared
(** An operation with its footprint and virtual-read set derived once and
    compiled: one slot per distinct resource, in ascending resource order,
    holding the union of the modes taken there and the union of their
    conflict masks. *)

val prepare : t -> (string * Dtx_update.Op.t) array -> prepared array
(** Derive and compile every operation's footprint once, after a warm-up
    pass that drives the DataGuide's insert-target growth to its fixed
    point, so each pairwise verdict is decided against one consistent
    schema state. *)

val decide_prepared : prepared -> prepared -> verdict
(** {!decide} over compiled footprints: two operations on different
    documents, or two queries, commute at once; otherwise one linear merge
    of the two sorted resource arrays decides, with no allocation. This is
    the form the runtime classifier runs against every operation of the
    active transactions it cannot skip. *)

val matrix :
  t -> (string * Dtx_update.Op.t) array -> verdict array array
(** Pairwise verdicts for a workload's operations; [m.(i).(j)] is
    [decide t ops.(i) ops.(j)]. Symmetric. Each operation's footprint and
    virtual-read set is derived once (via {!prepare}), not per pair. *)

val self_check :
  t -> (string * Dtx_update.Op.t) array -> (unit, string list) result
(** Soundness audit of {!matrix} over this workload: a raw lock-mode
    conflict (per {!Dtx_locks.Mode.compatible}, no virtual reads) must
    never be answered [Commutes], underivable footprints must be [Unknown],
    and the matrix must be symmetric. *)
