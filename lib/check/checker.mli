(** Online trace analyzer for DTX runs.

    A checker attaches to a {!Dtx.Cluster} by installing the trace sinks
    the instrumented layers expose (lock table, network, coordinator FSM,
    participants, simulator clock) and mirrors just enough state to verify,
    while the simulation runs:

    - {b s2pl-discipline} — no lock acquired after a transaction's
      end-of-transaction release at a site (Strict 2PL);
    - {b lock-compat} — every grant is compatible with the other holders
      under {!Dtx_locks.Mode.compatible};
    - {b lock-balance} — releases never exceed acquisitions, and nothing is
      still held when a transaction finishes at a site;
    - {b fsm-conformance} — coordinator phase transitions follow the
      documented machine, and protocol messages are only sent from the
      phases that may send them;
    - {b 2pc-order} / {b 2pc-prepare} — no Commit before every prepared
      participant delivered a yes vote, and no yes vote without a durably
      logged Prepared record (Algs. 5/6 + the 2PC extension);
    - {b atomic-undo} — a blocked multi-site operation's partial execution
      is undone everywhere before its transaction commits (Alg. 1
      l. 15-17);
    - {b deadlock-victim} — every Victim message corresponds to a real
      cycle in that detector round's unioned wait-for graph, and names its
      newest transaction — latest admission time, ties broken by the larger
      id, mirroring [Coordinator.newest_of] (Alg. 4);
    - {b sim-clock} — virtual time never decreases;
    - {b dedup} — a duplicated or retransmitted operation shipment is never
      executed twice at a site (at-most-once delivery);
    - {b partition} — no message is delivered across a link the fault-plan
      oracle ([create ~link_oracle]) says is severed;
    - {b recovery} — crash/restart honesty: an in-doubt transaction may
      only resolve as committed if a Commit was actually issued, must not
      resolve as aborted once its commit applied somewhere (no committed
      write is lost), and every in-doubt record must be resolved by the end
      of the run.

    {!finish} adds the end-of-run checks: {b serializability} (acyclic
    precedence graph over the committed history, via {!Dtx.History}),
    {b mode-lattice} ({!Lattice.check}), unresolved in-doubt records, and
    undischarged undo obligations. Violations carry the recent ring-buffer
    events relevant to the offending transaction — the minimal suffix a
    human needs. *)

(** The unified trace event, one constructor per instrumented layer. *)
type event =
  | Lock of { site : int; ev : Dtx_locks.Table.event }
  | Net of {
      src : int;
      dst : int;
      dir : Dtx_net.Net.dir;
      msg : Dtx_net.Msg.t;
    }
  | Phase of {
      txn : int;
      from_ : Dtx.Coordinator.phase option;
      to_ : Dtx.Coordinator.phase;
    }
  | Part of { site : int; ev : Dtx.Participant.event }

type violation = {
  v_invariant : string;  (** e.g. ["s2pl-discipline"], ["2pc-order"] *)
  v_txn : int option;
  v_site : int option;
  v_detail : string;
  v_time : float;  (** simulated ms at which the violation was detected *)
  v_suffix : (float * event) list;  (** recent relevant events, oldest first *)
}

val pp_violation : Format.formatter -> violation -> unit

val violation_json : violation -> string
(** One-line JSON object ([invariant]/[txn]/[site]/[time_ms]/[detail],
    suffix omitted) — the machine-readable verdict the explorer and CI
    gates aggregate. *)

type t

val create :
  ?ring:int ->
  ?suffix:int ->
  ?link_oracle:(time:float -> src:int -> dst:int -> bool) ->
  unit ->
  t
(** A fresh checker. [ring] (default 256) is the capacity of the circular
    trace buffer — how far back a violation report can look. [suffix]
    (default 30) caps how many of those events a report actually quotes;
    the schedule explorer passes small values for both, since it builds
    thousands of throwaway checkers and only ever prints the first
    violation's tail. [link_oracle] arms the {b partition} invariant: it
    says whether the [src -> dst] link is severed at [time]; [Run.run]
    passes the fault plan's [cut]. @raise Invalid_argument if [ring < 1] or
    [suffix < 0]. *)

val attach : ?mutate:(event -> event option) -> t -> Dtx.Cluster.t -> unit
(** Attach to [cluster] with one {!Dtx.Cluster.attach_tracer} call (all
    five instrumented layers) and enable its history recording. Call before
    submitting transactions. [mutate] taps
    the event stream before the checker sees it — return [None] to hide an
    event, or a different event to corrupt it. The seeded-fault registry
    ([Dtx_faults.Faults]) uses it to prove the checker catches discipline
    violations (a hidden release, a hidden vote) without breaking the
    actual run. *)

val emit : t -> time:float -> event -> unit
(** Feed one event directly (scripted schedules in tests — no cluster
    needed). *)

val finish : t -> violation list
(** Run the end-of-run checks and return every violation found, in
    detection order. *)

val violations : t -> violation list
(** Violations found so far, in detection order, without running the
    end-of-run checks. *)
