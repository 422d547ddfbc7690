(** The simulation cost model — the stand-in for the paper's testbed
    (3 GHz PCs on a 100 Mbit/s hub; see DESIGN.md "Substitutions").

    Every experiment outcome the paper reports is a {e relative} effect of
    (a) how many locks a protocol requests, (b) how many document nodes an
    operation touches, and (c) how many messages synchronization needs.
    The constants here only set the exchange rate between those three and
    simulated milliseconds; the benches' ablation sweep shows the
    qualitative results are insensitive to them over wide ranges. *)

type t = {
  lock_request_ms : float;
      (** processing one (resource, mode) lock request in the LockManager *)
  node_touch_ms : float;
      (** visiting or writing one document node during query/update work *)
  sched_ms : float;  (** fixed Scheduler overhead per operation dispatch *)
  persist_node_ms : float;
      (** DataManager write-back per touched node at commit *)
  result_bytes_per_node : int;
      (** per query-result node shipped back in a status reply (message
          envelopes themselves are sized by {!Dtx_net.Msg.size}) *)
}

val default : t
