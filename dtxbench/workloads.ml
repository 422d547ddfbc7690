(* The four workloads. Each stresses a different layer and bypasses at least
   one mechanism another workload exercises, so a change to one layer has a
   workload that should move and one that should stay flat. The load model
   is DTXTester's closed loop: a client submits its next transaction only
   when the previous one ended. *)

module Workload = Dtx_workload.Workload
module Protocol = Dtx_protocol.Protocol

type t = {
  name : string;
  params : Workload.params;  (** full size; [seed] is overridden per round *)
  smoke : Workload.params;  (** a tiny version for the tier-1 smoke *)
  round_s : float;
      (** typical wall seconds of one full-size round on a 2-core x86-64
          host: sizes a run to a time budget *)
}

let base = Workload.default_params

(* 1000 sites x 10k one-transaction clients: message- and event-bound
   (~13 messages but ~2 lock requests per txn), and the only workload where
   set-up (a 1000-site cluster) matters. *)
let scale_fanout =
  let params =
    { base with
      protocol = Protocol.xdgl;
      n_sites = 1000;
      n_clients = 10_000;
      txns_per_client = 1;
      ops_per_txn = 3;
      base_size_mb = 10.0;
      update_txn_pct = 20;
      update_op_pct = 20 }
  in
  { name = "scale-fanout";
    params;
    smoke = { params with n_sites = 100; n_clients = 1000; base_size_mb = 2.0 };
    round_s = 1.7 }

(* The paper's defaults (XDGL, 4 sites, 40 MB, 50 clients x 5 ops), 25
   txns per client: XPath evaluation and DataGuide lock derivation over
   large documents dominate. *)
let paper_xdgl =
  let params = { base with txns_per_client = 25 } in
  { name = "paper-xdgl";
    params;
    smoke =
      { params with n_clients = 16; txns_per_client = 4; base_size_mb = 4.0 };
    round_s = 1.5 }

(* Node2PL, read-only: ~1000 processed lock requests per txn and no
   blocking, so the lock table's grant/release fast path dominates; it
   bypasses the wait-for graph, update/undo and 2PC. *)
let node2pl_readonly =
  let params =
    { base with
      protocol = Protocol.node2pl;
      n_sites = 3;
      base_size_mb = 8.0;
      n_clients = 48;
      txns_per_client = 25;
      update_txn_pct = 0 }
  in
  { name = "node2pl-readonly";
    params;
    smoke =
      { params with n_clients = 16; txns_per_client = 4; base_size_mb = 2.0 };
    round_s = 0.85 }

(* Commute with 2PC on a small hot document: blocking and wake-ups,
   deadlocks, undo, validation aborts and prepare/vote; small documents
   bypass XPath cost. *)
let hot_commute_2pc =
  let params =
    { base with
      protocol = Protocol.commute;
      two_phase_commit = true;
      n_sites = 4;
      base_size_mb = 2.0;
      n_clients = 64;
      txns_per_client = 25;
      ops_per_txn = 4;
      update_txn_pct = 20;
      retries = 3 }
  in
  { name = "hot-commute-2pc";
    params;
    smoke = { params with n_clients = 32; txns_per_client = 6 };
    round_s = 1.05 }

let all = [ scale_fanout; paper_xdgl; node2pl_readonly; hot_commute_2pc ]

let find name = List.find_opt (fun w -> w.name = name) all

(* A run repeats its inputs in passes until its time budget is spent; it
   is sized for this many. The host's interference only ever adds time and
   comes in phases of seconds, so an input's best pass is its steady
   figure. *)
let target_passes = 6

(* The number of inputs whose [target_passes] rounds fill [seconds] — a
   function of the budget, not of the clock, so every run with the same
   arguments measures the same inputs. *)
let inputs_for w ~seconds =
  max 2 (int_of_float (Float.round (seconds /. (float_of_int target_passes *. w.round_s))))

(* Input [k] of a run with seed [seed] uses this workload seed. Spreading
   the pooled rounds over several generated inputs keeps the virtual
   metrics of one run from hanging on one random draw; the same [seed]
   always yields the same sequence. *)
let sub_seed ~seed k = seed + (k * 100_003)
