(** The coordinator side of the paper's Scheduler: Algorithm 1 as an
    explicit per-transaction state machine.

    Each transaction moves through the phases

    {v Executing -> Awaiting_replies -> (Waiting ->) ... -> Preparing?
       -> Ending -> Done v}

    - {e Executing}: picking the next operation (or batch) to ship;
    - {e Awaiting_replies}: one shipment is in flight to one participant
      (participants are visited one at a time, in ascending site order —
      a global acquisition order that prevents cross-site livelock);
    - {e Waiting}: blocked on a lock conflict, waiting for a [Wake];
    - {e Preparing}: the 2PC vote round (future-work extension);
    - {e Ending}: commit/abort fan-out outstanding (Algs. 5/6);
    - {e Done}: finalized, removed from the table.

    Consecutive operations bound for the same single site are batched into
    one [Op_ship] (one message round-trip instead of one per operation);
    multi-site operations still traverse their replica sites one by one.

    All incoming coordinator-bound messages ([Op_status], [Vote],
    [End_ack], [Wake], [Wound], [Victim], [Outcome_query]) enter through
    {!dispatch}.

    Unreliable-channel recovery: operation shipments carry a global
    sequence number and are retransmitted with exponential backoff (when
    [retransmit_ms] is set) until their status reply lands; participants
    deduplicate by [(txn, seq)], so duplicated or replayed shipments never
    double-apply. Prepare and commit/abort rounds track outstanding
    {e per-site} acknowledgements — duplicated votes/acks are harmless —
    and are likewise nudged under retransmission. The coordinator records
    every finalized outcome so a crashed-and-restarted participant can
    resolve its in-doubt transactions with [Outcome_query]; unknown
    transactions are presumed aborted. *)

type commit_protocol = One_phase | Two_phase

(** The per-transaction FSM phases, exposed so the analyzer can check
    transition legality against the documented machine. *)
type phase =
  | Executing  (** picking / scheduling the next shipment *)
  | Awaiting_replies  (** a shipment is in flight to one participant *)
  | Waiting  (** blocked; resumes on [Wake] *)
  | Preparing  (** 2PC vote round outstanding *)
  | Ending  (** commit/abort fan-out outstanding *)
  | Done

val phase_to_string : phase -> string

type phase_tracer = txn:int -> from_:phase option -> to_:phase -> unit
(** Called on every phase {e change} (same-phase re-assignments are
    suppressed). [from_ = None] marks transaction admission. *)

(** Cluster-wide counters and series for the experiment harness
    (re-exported as [Cluster.stats]). *)
type stats = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deadlock_aborts : int;
  mutable distributed_deadlocks : int;
  mutable local_deadlocks : int;
  mutable op_undos : int;
  mutable wake_messages : int;
  mutable wounded : int;
  mutable retransmits : int;
  mutable validation_aborts : int;
      (** transactions aborted because their optimistic commutativity
          assumption was invalidated (Commute protocol only) *)
  mutable last_finish : float;
  response_times : float Dtx_util.Vec.t;
  commit_stamps : float Dtx_util.Vec.t;
  concurrency_samples : (float * int) Dtx_util.Vec.t;
}

type t

val create :
  sim:Dtx_sim.Sim.t ->
  net:Dtx_net.Net.t ->
  cost:Cost.t ->
  catalog:Dtx_frag.Allocation.catalog ->
  commit:commit_protocol ->
  op_timeout_ms:float option ->
  ?retransmit_ms:float ->
  ?txn_timeout_ms:float ->
  site_failed:(int -> bool) ->
  n_sites:int ->
  unit ->
  t
(** [retransmit_ms] (default [None] — off) arms exponential-backoff
    retransmission of shipments, prepares and commit/abort messages, plus
    the give-up fallbacks that keep transactions from stranding when a
    destination stays unreachable. [txn_timeout_ms] (default [None]) is the
    chaos safety valve: a transaction still short of its end protocol after
    that long is aborted outright. *)

val submit :
  t ->
  client:int ->
  coordinator:int ->
  ops:(string * Dtx_update.Op.t) list ->
  on_finish:(Dtx_txn.Txn.t -> unit) ->
  Dtx_txn.Txn.t

val dispatch : t -> src:int -> Dtx_net.Msg.t -> unit
(** Single entry point for coordinator-bound messages; participant-bound
    kinds are ignored. *)

val stats : t -> stats

val active : t -> int
(** Transactions not yet finalized. *)

val txn_status : t -> int -> Dtx_txn.Txn.status option

val txn_live : t -> txn:int -> attempt:int -> bool
(** Participant liveness peek: [txn] exists, is not yet committing or
    aborting, and [attempt] is its current shipment round. *)

val home_of : t -> txn:int -> int option
(** The coordinator site of a live transaction (where the detector
    addresses its [Victim] notification). *)

val newest_of : t -> int list -> int
(** Deadlock-victim choice (Alg. 4 l. 7): the transaction in the cycle with
    the largest submission timestamp, equal timestamps broken by the larger
    id — a deterministic total order, so schedule replays always abort the
    same victim. Unknown (already-finalized) transactions rank oldest.
    @raise Invalid_argument on an empty list. *)

val set_history : t -> History.t -> unit
(** Record commit/abort events into [h] at finalization. *)

val set_tracer : t -> phase_tracer option -> unit
(** Install (or remove) a phase-transition sink. [None] (the default) keeps
    phase assignment a plain store plus one immediate [match]. *)

(** How a delivered [(phase, Msg.Kind)] pair relates to the machine — the
    static classification the symbolic certifier ({!Dtx_cert}) audits for
    exhaustiveness. The payload string is provenance: the handler action
    ([Handled]), the staleness/idempotency guard that makes dropping
    deliberate ([Ignored]), or why delivery cannot happen here at all
    ([Impossible]). *)
type disposition =
  | Handled of string
  | Ignored of string
  | Impossible of string

val classify_delivery : phase -> Dtx_net.Msg.Kind.t -> disposition
(** Total over [phase] x {!Dtx_net.Msg.Kind.t}; co-located with the
    handlers so classification and guards are edited together. *)

val phase_of : t -> txn:int -> phase option
(** The phase a delivery for [txn] would find: the live phase if tracked,
    [Some Done] if finalized (outcome recorded), [None] if never
    submitted. *)

val set_optimist : t -> Optimist.t -> unit
(** Install the Commute protocol's commutativity classifier. From then on
    every {!submit} classifies its operations against the active set (the
    resulting flags ride the shipments), transactions are validated on the
    way into their end protocol, and invalidated ones abort with a
    validation abort. Without a classifier (the default) all operations
    ship pessimistically and validation always passes. *)
