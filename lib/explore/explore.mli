(** Dtx_explore — stateless model checking of the distributed protocol over
    the space of {e inequivalent} message-delivery schedules.

    A scenario pins the workload completely (sites, documents, transactions,
    operations); the only nondeterminism left in the deterministic simulator
    is {e which pending message delivery fires next}. The explorer replays
    the cluster from scratch once per schedule, driving that choice through
    {!Dtx_sim.Sim.set_chooser}, and walks the schedule tree depth-first.

    Partial-order reduction uses {e sleep sets} (Godefroid) seeded by the
    static independence relation from {!Dtx_protocol.Commute_rules}: two
    pending deliveries are independent when they target different sites,
    serve different transactions, and both carry operation shipments whose
    payloads pairwise [Commutes]. Sleep sets alone are conservative — every reachable state is
    still visited, only provably-equivalent interleavings are skipped — so a
    clean exhaustive run is a proof over the {e whole} schedule space (unless
    [o_truncated] says a budget was hit).

    Each replay is audited by the {!Dtx_check.Checker} oracle; seeded
    protocol bugs (a checker [tap] in {!config}) validate that the explorer
    actually reaches the schedules where a bug manifests. *)

(** {1 Scenarios} *)

type scenario = {
  sc_name : string;
  sc_about : string;  (** one-line description for [--list] output *)
  sc_sites : int;
  sc_docs : (string * string * int list) list;
      (** (name, xml, placement sites) *)
  sc_txns : (int * (string * string) list) list;
      (** (coordinator site, (doc, op source text) list); submitted in list
          order, so entry [k] becomes transaction id [k+1] *)
}

val reference : scenario
(** ["ref"] — the acceptance scenario: 2 txns × 2 sites, conflicting on each
    site, independent across sites (so naive exploration overcounts). *)

val disjoint : scenario
(** ["disjoint"] — fully commuting single-op writers; maximal reduction. *)

val deadlock : scenario
(** ["deadlock"] — opposite-order writers; exercises detector + victim rule
    in every interleaving where both block. *)

val scenarios : scenario list

val find_scenario : string -> scenario option

(** {1 Configuration} *)

type config = {
  protocol : Dtx_protocol.Protocol.kind;
  two_phase : bool;  (** 2PC commit instead of the paper's one-phase *)
  naive : bool;
      (** disable sleep sets: explore every delivery order (the baseline the
          ≥2× reduction gate compares against) *)
  tap : (Dtx_check.Checker.event -> Dtx_check.Checker.event option) option;
      (** seeded fault: rewrites the event stream every replay's checker
          sees (see {!Dtx_check.Checker.attach}); the fault registry's
          schedule-dependent faults plug in here *)
  max_schedules : int;  (** explored + pruned budget; sets [o_truncated] *)
  max_events : int;  (** per-replay simulator event budget *)
  ring : int;  (** checker event-ring capacity per replay *)
  suffix : int;  (** events quoted per violation report *)
}

val default_config : config
(** XDGL, one-phase, DPOR on, no tap, 20k schedules, ring 64. *)

(** {1 Outcomes} *)

type violating_schedule = {
  vs_path : int list;
      (** decision sequence (enabled-set indices) replaying the schedule *)
  vs_violations : Dtx_check.Checker.violation list;
}

type outcome = {
  o_scenario : string;
  o_config : config;
  o_explored : int;  (** complete replays (inequivalent schedules) *)
  o_pruned : int;
      (** redundant schedules avoided: sleep-suppressed alternatives plus
          replays cut short because every enabled choice slept *)
  o_max_depth : int;  (** longest decision sequence seen *)
  o_violating : violating_schedule list;  (** first few, with full reports *)
  o_violations : int;  (** total violations across all schedules *)
  o_unsound : string list;
      (** {!Dtx_protocol.Commute_rules.self_check} findings (gate input) *)
  o_truncated : bool;
      (** a budget cap was hit: results are a bounded, not exhaustive,
          statement *)
}

(** {1 Running} *)

val setup :
  ?retransmit_ms:float ->
  scenario ->
  protocol:Dtx_protocol.Protocol.kind ->
  two_phase:bool ->
  Dtx_sim.Sim.t * Dtx.Cluster.t
(** The cluster construction every replay uses (fresh simulator, LAN net,
    5 ms detector period, shutdown-when-idle), without a schedule chooser.
    Exposed so the symbolic certifier's reachability runs audit exactly the
    machine exploration covers; [retransmit_ms] arms the recovery paths its
    crash/restart run needs. Submit {!scripts} (or call
    [Dtx.Cluster.submit]) and [Dtx_sim.Sim.run] to execute. *)

val scripts : scenario -> Dtx_workload.Workload.script list
(** The scenario's transactions as one workload script per client, ready
    for [Dtx_workload.Workload.submit_script]. *)

val explore : ?config:config -> scenario -> outcome
(** Exhaustively (up to [max_schedules]) explore the scenario's delivery
    schedules. Every replay builds a fresh simulator/net/cluster, so calls
    are independent and deterministic. *)

val random_runs :
  ?jitter_ms:float ->
  scenario ->
  config ->
  seeds:int list ->
  (int * Dtx_check.Checker.violation list) list
(** One chaos-style baseline run per seed, paired with its violations: no
    chooser, instead a seeded fault plan adds uniform [0, jitter_ms)
    delivery offsets to remote messages (local deliveries keep their fixed
    zero delay — exactly why jitter alone cannot reorder a local shipment
    past a remote round trip, and why a skipped release of the last
    transaction hides from this baseline). Default jitter 2.0 ms. *)
