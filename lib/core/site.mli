(** One DTX instance — the per-site state of Fig. 1's architecture.

    The pieces map onto the paper's components as follows: the {e Listener}
    is {!Cluster}'s message dispatch; the {e Scheduler} is the coordinator /
    participant logic in {!Cluster}; this module is the {e TransactionManager}
    core that both share — the {b LockManager} ({!process_operation} is
    Algorithm 3: lock acquisition over the protocol's representation
    structure, wait-for-graph maintenance, local deadlock detection, and
    operation execution with undo logging) and the {b DataManager}
    ({!persist_txn} / storage write-back). *)

(** How lock conflicts that could deadlock are handled. The paper uses
    {e detection} (wait-for graphs + the periodic Algorithm-4 union) and
    reports "a considerable number of deadlocks … a deeper study of these
    results is necessary" (§5); the two classical {e prevention} policies
    are provided for exactly that study (see the bench ablation). Since
    transaction ids grow with start time, id order is age order. *)
type deadlock_policy =
  | Detection  (** wait and detect cycles (the paper's DTX) *)
  | Wait_die
      (** non-preemptive prevention: a requester may wait only for younger
          lock holders; if any holder is older, the requester dies *)
  | Wound_wait
      (** preemptive prevention: an older requester wounds (aborts) younger
          holders; a younger requester waits *)

type op_outcome =
  | Granted of {
      lock_requests : int;  (** locks processed (the overhead driver) *)
      touched : int;  (** document nodes visited/written *)
      result_nodes : int;  (** query result cardinality *)
    }
  | Blocked of {
      lock_requests : int;
      blockers : int list;
      wound : int list;
          (** wound-wait: younger holders the scheduler must abort *)
    }
      (** conflicting transactions hold locks; edges were added to the
          wait-for graph *)
  | Deadlock of { lock_requests : int }
      (** detection: adding the wait edges closed a cycle here (Alg. 3
          l. 9); wait-die: the requester must die *)
  | Op_failed of string
      (** locks were obtainable but execution failed (target vanished,
          bad fragment, …) — aborts the transaction (Alg. 1 l. 19) *)

type waiter = {
  waiting_txn : int;
  waiting_coordinator : int;  (** site to notify when the blocker ends *)
}

type stats = {
  mutable ops_processed : int;
  mutable lock_requests : int;
  mutable blocked_ops : int;
  mutable local_deadlocks : int;
}

type t = {
  id : int;
  protocol : Dtx_protocol.Protocol.t;
  deadlock_policy : deadlock_policy;
  table : Dtx_locks.Table.t;
  wfg : Dtx_locks.Wfg.t;
  storage : Dtx_storage.Storage.t;
  op_effects : (int * int, op_effect) Hashtbl.t;
      (** (txn, op_index) → what that operation did here *)
  txn_ops : (int, int list ref) Hashtbl.t;
      (** txn → op indexes executed here, newest first *)
  waiters : (int, waiter list ref) Hashtbl.t;  (** blocker txn → waiters *)
  txn_coords : (int, int) Hashtbl.t;
      (** txn → coordinator site, recorded from each operation shipment, so
          the participant can address wound notifications (wound-wait) *)
  mutable busy_until : float;  (** scheduler serialization point *)
  stats : stats;
  mutable access_sink :
    (txn:int -> op_index:int -> attempt:int ->
     (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list -> unit)
    option;
      (** history hook: called with the lock grants of each executed
          operation (see {!History}) *)
  mutable undo_sink : (txn:int -> op_index:int -> attempt:int -> unit) option;
      (** history hook: called when an executed operation is undone *)
  wal : Wal.t;  (** durable commit log (survives {!wipe_volatile}) *)
}

and op_effect = {
  eff_doc : string;
  eff_op : Dtx_update.Op.t;  (** the operation itself (redo logging) *)
  eff_attempt : int;  (** coordinator attempt that produced this effect *)
  eff_requests : (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list;
  eff_undo : Dtx_update.Exec.undo_entry list;
  eff_touched : int;
}

val create :
  id:int ->
  protocol_kind:Dtx_protocol.Protocol.kind ->
  ?deadlock_policy:deadlock_policy ->
  storage:Dtx_storage.Storage.t ->
  docs:Dtx_xml.Doc.t list ->
  unit ->
  t
(** A site holding private replicas of [docs] (clones are taken; the
    originals are not shared) and persisting them into [storage].
    [deadlock_policy] defaults to {!Detection}. *)

val process_operation :
  ?optimistic:bool -> t -> txn:int -> op_index:int -> attempt:int ->
  doc:string -> Dtx_update.Op.t -> op_outcome
(** Algorithm 3. On [Granted] the operation's effects are applied to the
    local replica, its undo log is saved (tagged with [attempt]), and its
    locks are held (Strict 2PL). On [Blocked] wait-for edges
    [txn → blockers] are recorded here. Stale wait edges of [txn] at this
    site are cleared first, and a leftover effect of an earlier attempt of
    the same operation is reversed before re-executing (the coordinator's
    cross-site undo may still be in flight).

    [optimistic] (default [false]) is the Commute protocol's fast path:
    the coordinator proved the operation commutes with everything active,
    so a read-only footprint acquires no locks at all and an update
    footprint is downgraded to intention modes ({!Dtx_locks.Mode.intention_for});
    only the locks actually taken are charged, released on undo/finish, and
    mirrored by the checker, while the {e full} derived footprint is still
    reported to the history sink so serializability stays strictly
    checked. *)

val optimistic_requests :
  Dtx_update.Op.t ->
  (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list ->
  (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list
(** The locks an [optimistic] {!process_operation} takes in place of the
    derived footprint: none for a read-only footprint, otherwise each
    request downgraded to its intention mode (sorted, deduplicated). *)

val undo_operation : ?only_attempt:int -> t -> txn:int -> op_index:int -> unit
(** Reverse one executed operation and release the locks it took (the
    cross-site all-or-nothing rule, Alg. 1 l. 16). No-op if the operation
    never executed here, or if [only_attempt] is given and does not match
    the recorded attempt (a stale undo message). *)

val register_waiter : t -> blocker:int -> waiter -> unit

val note_coordinator : t -> txn:int -> coordinator:int -> unit
(** Remember which site coordinates [txn] (from an operation shipment's
    source). Cleared by {!finish_txn} and {!wipe_volatile}. *)

val coordinator_of : t -> txn:int -> int option

val take_waiters : t -> blocker:int -> waiter list
(** Remove and return the transactions waiting on [blocker] here. Called
    whenever [blocker] releases locks — at transaction end, but also after
    an operation-level undo (Alg. 1 l. 16), whose released locks may already
    unblock a waiter. A woken transaction re-registers if it blocks again. *)

val finish_txn : t -> txn:int -> commit:bool -> waiter list
(** End the transaction at this site: on commit persist its documents
    (write-back to storage), on abort undo everything it did here; then
    release all its locks, drop it from the wait-for graph and return the
    waiters to wake (Algs. 5/6 participant side). *)

val txn_redo : t -> txn:int -> (string * string) list
(** The redo list a [Wal.Prepared] record carries: this transaction's
    update operations at this site, oldest first, as
    [(document, operation text)] pairs. Queries are omitted. *)

val replay_redo : t -> (string * string) list -> (string list, string) result
(** Re-apply a durable redo list against the recovered replicas and persist
    the touched documents — the write-back a crash-lost commit would have
    done. Returns the documents persisted. *)

val txn_touched_total : t -> txn:int -> int
(** Total document nodes this transaction wrote at this site (sizes the
    DataManager's commit write-back cost). *)

val wfg_snapshot : t -> Dtx_locks.Wfg.t
(** Copy of the local wait-for graph (what the detector ships around). *)

val wipe_volatile : t -> unit
(** Crash simulation: lose everything held in main memory — replicas, the
    DataGuide, the lock table, the wait-for graph, undo logs, waiter lists.
    The durable store is untouched. *)

val recover_from_storage : t -> unit
(** Restart after a crash: rebuild the replicas (and, for XDGL, their
    DataGuides) from the last states the DataManager persisted — i.e. the
    effects of every transaction that committed here, and nothing else.
    This is the recovery strategy the paper lists as future work (§5):
    commit-time write-back makes the store a consistent checkpoint, so
    recovery is a reload. *)
