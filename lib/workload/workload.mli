(** DTXTester — the client simulator driving the evaluation (paper §3: "a
    client simulator called DTXTester is developed … The simulator generates
    the transactions according to certain parameters, sends them to DTX and
    collects the results at the end of each execution").

    One {!run} builds the whole experiment: generate the XMark base sized in
    paper-MB, fragment it, allocate replicas per the replication mode, boot a
    {!Dtx.Cluster} under the chosen protocol, attach the clients (each client
    submits its transactions sequentially, resubmitting an aborted one up to
    [retries] times), run the simulation to completion, and collect every
    metric the paper reports. *)

type params = {
  seed : int;
  protocol : Dtx_protocol.Protocol.kind;
  n_sites : int;
  n_clients : int;
  txns_per_client : int;
  ops_per_txn : int;
  update_txn_pct : int;
      (** percent of transactions that are update transactions *)
  update_op_pct : int;
      (** percent of operations that are updates, within an update
          transaction *)
  base_size_mb : float;  (** database size in paper-MB (≈250 nodes/MB) *)
  replication : Dtx_frag.Allocation.replication;
  n_fragments : int;  (** 0 = one fragment per site *)
  deadlock_period_ms : float;
  retries : int;  (** client resubmissions after an abort (paper: client's
                      choice; experiments use 0) *)
  cost : Dtx.Cost.t;
  net_config : Dtx_net.Net.Config.t;
      (** [Config.lan] (the paper's testbed) or [Config.wan] (its
          future-work environment) *)
  two_phase_commit : bool;
      (** use the 2PC extension instead of the paper's one-phase commit *)
  deadlock_policy : Dtx.Site.deadlock_policy;
      (** detection (the paper) or wait-die / wound-wait prevention *)
  op_timeout_ms : float option;  (** see {!Dtx.Cluster.config} *)
  retransmit_ms : float option;
      (** coordinator retransmission backoff base (the chaos runs set it);
          [None] keeps the unfaulted wire behaviour *)
  txn_timeout_ms : float option;
      (** chaos safety valve: abort transactions stranded this long *)
}

val default_params : params
(** Paper defaults: XDGL, 4 sites, 50 clients × 5 txns × 5 ops, 20 %/20 %
    updates, 40 MB, partial replication, no retries. *)

type result = {
  params : params;
  planned_txns : int;  (** clients × txns_per_client *)
  committed : int;
  aborted : int;  (** final aborts, after retries *)
  failed : int;
  not_executed : int;  (** planned transactions that never committed *)
  deadlocks : int;  (** deadlock-caused aborts — the paper's metric *)
  validation_aborts : int;
      (** Commute-protocol optimistic-validation aborts (invalidated
          commutativity assumption or DataGuide drift); 0 elsewhere *)
  response : Dtx_util.Stats.summary;  (** committed-transaction response times (ms) *)
  makespan_ms : float;  (** virtual time until the system drained *)
  messages : int;
  net_bytes : int;
  traffic : Dtx_net.Net.traffic list;
      (** per-message-kind sent/dropped/bytes breakdown *)
  lock_requests : int;
  blocked_ops : int;
  op_undos : int;
  throughput : (float * float) list;
      (** cumulative committed transactions over time (Fig. 12) *)
  concurrency : (float * int) list;
      (** active transactions over time (Fig. 12's concurrency degree) *)
  structure_nodes : int;
      (** total lock-structure size across sites (DataGuide vs document) *)
}

type database
(** A generated, fragmented XMark base — the expensive pure prefix of a
    {!run}. Deterministic in (seed, base size, fragment count); fragments
    are cloned into sites, so one database can back any number of runs. *)

val build_database : params -> database
(** Generate and fragment the base for [params] (only [seed],
    [base_size_mb] and the fragment count are read). Build once, then pass
    to every {!run} of a sweep that varies clients, protocol or topology —
    at 1000 sites the fragmentation is the dominant setup cost. *)

val run :
  ?instrument:(Dtx.Cluster.t -> unit) -> ?database:database -> params -> result
(** Deterministic for a given [params] — with or without a shared
    [database], which is checked against [params] and rejected on mismatch.
    [instrument] runs on the freshly built cluster before any transaction
    is submitted — the hook the [Dtx_check] analyzer (and the history-based
    tests) attach through. The generator's per-fragment id pools
    ({!Dtx_xmark.Queries.pools}) are built after the hook, in the run
    phase, once per fragment. *)

val pp_result : Format.formatter -> result -> unit
(** One-paragraph human-readable summary. *)

(** {2 Scripted workloads — the stepwise driver}

    The schedule explorer (and any test wanting a {e fixed} workload on a
    hand-built cluster) bypasses generation entirely: a {!script} pins one
    client's transactions down to the operation, and {!submit_script} wires
    the same sequential submit-on-finish client loop {!run} uses, with no
    randomness. Replayed on a deterministic cluster, the only remaining
    degrees of freedom are the scheduling choices the explorer controls. *)
type script = {
  sc_client : int;
  sc_coordinator : int;  (** site whose Listener receives the submissions *)
  sc_txns : (string * Dtx_update.Op.t) list list;
      (** transactions, submitted back-to-back; each is (doc, op) list *)
}

val submit_script : ?retries:int -> Dtx.Cluster.t -> script list -> unit
(** Attach each script's client to [cluster]: the first transaction of every
    script is submitted immediately, each subsequent one from its
    predecessor's [on_finish] (aborted transactions are resubmitted up to
    [retries] times, default 0). Returns once the submissions are wired —
    drive the cluster's simulator to execute them. *)

(** Cross-seed aggregation: the paper reports single runs; [run_many]
    quantifies how sensitive a configuration's metrics are to the workload
    seed (EXPERIMENTS.md quotes these to justify calling single-seed
    crossovers "noise"). *)
type aggregate = {
  runs : result list;
  mean_response : Dtx_util.Stats.summary;  (** over per-run mean responses *)
  mean_deadlocks : float;
  sd_deadlocks : float;
  mean_committed : float;
  mean_makespan : float;
}

val run_many : ?seeds:int list -> params -> aggregate
(** [run_many p] runs [p] once per seed (default [[7; 107; 207]],
    overriding [p.seed]) and aggregates. *)
