(** The coordinator-side optimistic commutativity classifier — the runtime
    half of the Commute protocol ({!Dtx_protocol.Protocol.commute}).

    At submit, every transaction's operations are classified against the
    operations of all concurrently active transactions using the
    instance-independent verdicts of {!Dtx_protocol.Commute_rules}
    (Dekeyser et al., arXiv cs/0505074). Operations proved to commute with
    everything active ship with the optimistic flag: the participant skips
    lock acquisition for read-only footprints and downgrades update
    footprints to intention modes. [Conflicts]/[Unknown] operations ship
    pessimistically and take the full XDGL-derived lock set.

    The optimism is kept sound by two commit-time checks, both enforced
    just before the transaction enters its end protocol (one-phase) or its
    prepare phase (2PC):

    - {e pairwise invalidation}: admitting an operation that does {e not}
      commute with an optimistically executed operation of an active
      transaction invalidates that transaction — unless it has already
      executed all its operations, in which case every dependency points
      from it to the newcomer and the assumption still holds;
    - {e structural validation}: the classifier snapshots its private
      DataGuide version for each document a transaction touches; if a
      concurrent admission grew the guide (a structural mutation introduced
      schema paths the admission-time verdicts never saw), the transaction
      aborts rather than trust stale footprints.

    Invalidated transactions abort (a {e validation abort}) and are retried
    by the workload layer like any other abort.

    The classifier owns a private analyzer over cloned documents; it never
    shares state with the sites it classifies for. *)

type t

val create :
  protocol:Dtx_protocol.Protocol.kind -> docs:Dtx_xml.Doc.t list -> t
(** Build the classifier over the cluster's placement documents (deep
    cloned; the analyzer instance is private). *)

val admit : t -> txn:int -> ops:(string * Dtx_update.Op.t) array -> bool array
(** Classify a submitting transaction against every active one and register
    it. Returns the per-operation optimistic flags (a copy). May invalidate
    active transactions whose optimistic assumption this admission
    breaks.

    An active transaction is skipped outright unless the two share a
    document on which at least one of them updates: every other pair of
    operations is on different documents or is two queries, and those
    commute. Each entry keeps its sorted documents and a per-document
    update flag for this test, so it holds for any number of documents.
    Only the transactions left are compared operation by operation. *)

val invalidated : t -> txn:int -> string option
(** The invalidation reason, if a later admission broke this transaction's
    optimistic assumption — the coordinator polls this to abort early
    instead of finishing doomed work. *)

val note_all_executed : t -> txn:int -> unit
(** Mark that the transaction executed all its operations (it is entering
    its end protocol): from now on a conflicting admission no longer
    invalidates it. *)

val validate : t -> txn:int -> (unit, string) result
(** The prepare-time validation step: [Error reason] if the transaction was
    pairwise-invalidated or a touched document's DataGuide advanced past
    its admission snapshot. *)

val remove : t -> txn:int -> unit
(** Drop the transaction from the active set (at finalize, whatever the
    outcome). *)
