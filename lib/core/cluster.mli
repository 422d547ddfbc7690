(** The DTX cluster: the paper's distributed concurrency-control mechanism,
    assembled.

    One [Cluster.t] wires N {!Site} instances to a simulated {!Dtx_net.Net}
    and runs the paper's algorithms:

    - {b Algorithm 1} (coordinator): each submitted transaction executes its
      operations in order; an operation is shipped to {e every} site holding
      its document (the catalog answers which); if any participant cannot
      acquire the locks, the operation's effects are undone at the sites
      where it did run and the transaction waits; a failure or deadlock
      aborts it; running out of operations commits it.
    - {b Algorithm 2} (participants): remote operations are processed
      through the local LockManager and their status is reported back.
    - {b Algorithm 3} lives in {!Site.process_operation}.
    - {b Algorithm 4}: a periodic process collects every site's wait-for
      graph, unions them, and aborts the {e newest} transaction of any
      cycle.
    - {b Algorithms 5/6}: commit and abort messages fan out to the involved
      sites; participants persist or undo, release locks, and wake waiting
      transactions.

    Waiting transactions are resumed by {e wake} messages sent when the
    transaction they wait for releases its locks — "when a transaction
    commits, those that entered wait mode waiting for the locks of the one
    that committed, start executing again" (§2.2). *)

type commit_protocol = Coordinator.commit_protocol =
  | One_phase
      (** the paper's DTX: the coordinator sends consolidation messages and
          every site applies them (Alg. 5) — atomicity is future work *)
  | Two_phase
      (** the future-work extension: a prepare/vote round first, with
          {!Wal} records making recovery presumed-abort safe; costs one
          extra message round-trip per involved site at commit *)

type config = {
  protocol : Dtx_protocol.Protocol.kind;
  cost : Cost.t;
  deadlock_period_ms : float;
      (** period of the Algorithm-4 detector (paper: "periodically") *)
  storage : [ `Memory | `Filesystem of string ];
      (** DataManager backend per site: in-memory (the default) or one XML
          file per document under [dir/site<i>] *)
  commit : commit_protocol;
  deadlock_policy : Site.deadlock_policy;
      (** {!Site.Detection} (the paper), or wait-die / wound-wait
          prevention for the deadlock study the paper calls for *)
  op_timeout_ms : float option;
      (** abort a transaction whose in-flight operation got no participant
          reply within this delay — the recovery knob for lossy links
          (operation traffic rides {!Dtx_net.Net.Unreliable}, which a
          fault-plan link fault may drop); [None] (default) disables
          timeouts *)
  retransmit_ms : float option;
      (** arm coordinator retransmission (exponential backoff, base this
          many ms) of unreliably-shipped operations and of severed
          prepare/commit/abort traffic, plus the participant's recovery
          outcome queries — the fault-plan survival kit; [None] (default)
          keeps the wire behaviour of the unfaulted protocol *)
  txn_timeout_ms : float option;
      (** chaos safety valve: abort any transaction still short of its end
          protocol after this long (e.g. its Wake died in a never-healed
          partition); [None] (default) disables it *)
}

val default_config : ?protocol:Dtx_protocol.Protocol.kind -> unit -> config
(** XDGL, default costs, 40 ms detector period, memory storage, one-phase
    commit (the paper's behaviour). *)

(** Cluster-wide counters and series for the experiment harness. *)
type stats = Coordinator.stats = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deadlock_aborts : int;
      (** aborts whose reason was a (local or distributed) deadlock — the
          paper's "number of deadlocks" metric *)
  mutable distributed_deadlocks : int;  (** found by the Alg.-4 detector *)
  mutable local_deadlocks : int;  (** found inside one site's LockManager *)
  mutable op_undos : int;  (** operation-level cross-site undos (Alg. 1 l. 16) *)
  mutable wake_messages : int;
  mutable wounded : int;
      (** wound-wait: transactions aborted because an older requester
          needed their locks *)
  mutable retransmits : int;
      (** messages re-sent by the coordinator's backoff timers *)
  mutable validation_aborts : int;
      (** Commute protocol: transactions aborted because their optimistic
          commutativity assumption was invalidated by a concurrent
          admission or structural mutation *)
  mutable last_finish : float;  (** time the last transaction ended *)
  response_times : float Dtx_util.Vec.t;  (** committed transactions only *)
  commit_stamps : float Dtx_util.Vec.t;  (** commit times (Fig. 12 input) *)
  concurrency_samples : (float * int) Dtx_util.Vec.t;
      (** (time, active transactions) at every change (Fig. 12 input) *)
}

type t

val create :
  sim:Dtx_sim.Sim.t ->
  net:Dtx_net.Net.t ->
  n_sites:int ->
  config ->
  placements:Dtx_frag.Allocation.placement list ->
  t
(** Build the cluster: every placement's document is replicated (cloned) to
    its sites, protocol instances and stores included. The deadlock detector
    starts automatically and stops once {!shutdown_when_idle} has been called
    and no transaction is active. *)

val submit :
  t ->
  client:int ->
  coordinator:int ->
  ops:(string * Dtx_update.Op.t) list ->
  on_finish:(Dtx_txn.Txn.t -> unit) ->
  Dtx_txn.Txn.t
(** Hand a transaction to the Listener of site [coordinator]. [on_finish]
    fires exactly once, with status [Committed], [Aborted] or [Failed]. *)

val shutdown_when_idle : t -> unit
(** Let the periodic detector stop once no transactions remain, so the event
    queue can drain and {!Dtx_sim.Sim.run} returns. *)

val stats : t -> stats

val active_txns : t -> int

val sites : t -> Site.t array

val sim : t -> Dtx_sim.Sim.t

val net : t -> Dtx_net.Net.t

val coordinator : t -> Coordinator.t

val participants : t -> Participant.ctx array
(** The wired layers, exposed so an external observer (the [Dtx_check]
    analyzer) can install its trace sinks without the cluster knowing about
    it. Index [i] of {!participants} serves site [i]. *)

val catalog : t -> Dtx_frag.Allocation.catalog

val txn_status : t -> int -> Dtx_txn.Txn.status option

val total_lock_requests : t -> int
(** Sum of lock requests processed across all sites. *)

val total_blocked_ops : t -> int

val enable_history : t -> History.t
(** Start recording the execution history (lock grants, undos, commit
    order). Call before submitting transactions; returns the history, which
    keeps filling as the simulation runs. Idempotent. *)

val history : t -> History.t option

val check_serializable : t -> (unit, string) result
(** {!History.check_serializable} on the recorded history.
    @raise Invalid_argument if {!enable_history} was never called. *)

val crash_site : t -> site:int -> unit
(** Crash simulation: the site stops serving — it no longer acknowledges
    commit/abort requests, driving transactions that involve it into the
    paper's abort/fail paths (commit that cannot complete → abort; abort
    that cannot complete → failure, §2.2) — {e and} loses its volatile
    state: replicas, locks, wait-for graph, undo logs. Effects of those
    transactions at healthy sites are rolled back, so the system stays
    consistent. *)

val restart_site : t -> site:int -> unit
(** Restart a crashed site {e online}: reload its replicas, rejoin the
    cluster, and let the participant resolve each in-doubt transaction by
    querying its coordinator ([Outcome_query], capped backoff) — committed
    answers replay the WAL redo list, aborted or absent answers are
    presumed abort. New shipments are refused until recovery completes. *)

(** {2 Unified tracing}

    The analyzer ({!Dtx_check.Checker}) consumes five trace streams —
    simulator ticks, network dispatch, coordinator phase transitions, lock
    tables, participant events. {!attach_tracer} installs all five sinks in
    one call. *)

type trace_event =
  | Tr_lock of { site : int; ev : Dtx_locks.Table.event }
  | Tr_net of { src : int; dst : int; dir : Dtx_net.Net.dir; msg : Dtx_net.Msg.t }
  | Tr_phase of {
      txn : int;
      from_ : Coordinator.phase option;
      to_ : Coordinator.phase;
    }
  | Tr_part of { site : int; ev : Participant.event }
  | Tr_tick  (** one simulator event executed (clock-monotonicity probes) *)

type tracer = time:float -> trace_event -> unit

val attach_tracer : t -> tracer -> unit
(** Install [f] as the sink of all five trace streams. Events arrive in the
    causal order the cluster produced them; a later call replaces the
    earlier sink. *)
