(* One round: one complete DTXTester run of a workload at one seed, timed on
   the wall clock in two phases split at the [?instrument] hook.

   - set-up: [Workload.build_database] (XMark generation + fragmentation)
     plus the start of [Workload.run] up to the hook (allocation and
     [Cluster.create]);
   - run: everything after the hook — client generation, the simulation,
     and result collection.

   Virtual-clock figures and counts come from the cluster the hook hands
   out; nothing inside the program is changed or instrumented. *)

module Workload = Dtx_workload.Workload
module Cluster = Dtx.Cluster
module Vec = Dtx_util.Vec

type t = {
  seed : int;
  setup_s : float;
  run_s : float;
  run_words : float;  (** minor words allocated during the run phase *)
  planned : int;
  submitted : int;
  committed : int;
  aborted : int;  (** every aborted attempt, retried ones included *)
  failed : int;
  deadlock_aborts : int;
  validation_aborts : int;
  makespan_ms : float;
  responses : float array;  (** committed txns' response times, virtual ms *)
  lock_requests : int;
  blocked_ops : int;
  messages : int;
  net_bytes : int;
}

let run ?(instrument = fun (_ : Cluster.t) -> ()) (p : Workload.params) =
  (* Start every round from a compacted heap, as a fresh process would,
     rather than from whatever the previous round left behind. *)
  Gc.compact ();
  let t0 = Clock.now_s () in
  let database = Workload.build_database p in
  let hooked = ref None in
  let hook cluster =
    instrument cluster;
    hooked := Some (cluster, Clock.now_s (), Gc.minor_words ())
  in
  let r = Workload.run ~instrument:hook ~database p in
  let t_end = Clock.now_s () in
  let w_end = Gc.minor_words () in
  let cluster, t_hook, w_hook =
    match !hooked with
    | Some h -> h
    | None -> failwith "Workload.run never fired the instrument hook"
  in
  let s = Cluster.stats cluster in
  ( { seed = p.Workload.seed;
      setup_s = t_hook -. t0;
      run_s = t_end -. t_hook;
      run_words = w_end -. w_hook;
      planned = r.Workload.planned_txns;
      submitted = s.Cluster.submitted;
      committed = r.Workload.committed;
      aborted = s.Cluster.aborted;
      failed = s.Cluster.failed;
      deadlock_aborts = s.Cluster.deadlock_aborts;
      validation_aborts = s.Cluster.validation_aborts;
      makespan_ms = r.Workload.makespan_ms;
      responses = Vec.to_array s.Cluster.response_times;
      lock_requests = r.Workload.lock_requests;
      blocked_ops = r.Workload.blocked_ops;
      messages = r.Workload.messages;
      net_bytes = r.Workload.net_bytes },
    cluster )

(* Abort accounting, from outside the program: every submission ends exactly
   once (committed, aborted or failed), and the resubmissions beyond the
   planned transactions are the retries, each caused by an abort and
   bounded by the retry budget. A planned transaction's final outcome is
   its last attempt's, so committed + final aborts + failures = planned. *)
let accounting_error ~retries r =
  let retried = r.submitted - r.planned in
  let final_aborts = r.aborted - retried in
  if retried < 0 || retried > r.planned * retries || final_aborts < 0 then
    Some
      (Printf.sprintf "%d resubmissions for %d planned txns and %d aborts"
         retried r.planned r.aborted)
  else if r.committed + final_aborts + r.failed <> r.planned then
    Some
      (Printf.sprintf "planned %d <> committed %d + final aborts %d + failed %d"
         r.planned r.committed final_aborts r.failed)
  else if r.committed < 1 then Some "no transaction committed"
  else None

(* The figures that must repeat exactly whenever the same seed runs again. *)
let fingerprint r =
  Printf.sprintf "c%d a%d f%d s%d d%d v%d m%h l%d b%d n%d r%d:%h" r.committed
    r.aborted r.failed r.submitted r.deadlock_aborts r.validation_aborts
    r.makespan_ms r.lock_requests r.blocked_ops r.messages
    (Array.length r.responses)
    (Array.fold_left ( +. ) 0.0 r.responses)
