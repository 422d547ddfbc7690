module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Cluster = Dtx.Cluster
module Cost = Dtx.Cost
module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Fragment = Dtx_frag.Fragment
module Generator = Dtx_xmark.Generator
module Queries = Dtx_xmark.Queries
module Doc = Dtx_xml.Doc
module Rng = Dtx_util.Rng
module Stats = Dtx_util.Stats
module Vec = Dtx_util.Vec

type params = {
  seed : int;
  protocol : Protocol.kind;
  n_sites : int;
  n_clients : int;
  txns_per_client : int;
  ops_per_txn : int;
  update_txn_pct : int;
  update_op_pct : int;
  base_size_mb : float;
  replication : Allocation.replication;
  n_fragments : int;
  deadlock_period_ms : float;
  retries : int;
  cost : Cost.t;
  net_config : Net.Config.t;
  two_phase_commit : bool;
  deadlock_policy : Dtx.Site.deadlock_policy;
  op_timeout_ms : float option;
  retransmit_ms : float option;
  txn_timeout_ms : float option;
}

let default_params =
  { seed = 7;
    protocol = Protocol.xdgl;
    n_sites = 4;
    n_clients = 50;
    txns_per_client = 5;
    ops_per_txn = 5;
    update_txn_pct = 20;
    update_op_pct = 20;
    base_size_mb = 40.0;
    replication = Allocation.Partial { copies = 1 };
    n_fragments = 0;
    deadlock_period_ms = 40.0;
    retries = 0;
    cost = Cost.default;
    net_config = Net.Config.lan;
    two_phase_commit = false;
    deadlock_policy = Dtx.Site.Detection;
    op_timeout_ms = None;
    retransmit_ms = None;
    txn_timeout_ms = None }

type result = {
  params : params;
  planned_txns : int;
  committed : int;
  aborted : int;
  failed : int;
  not_executed : int;
  deadlocks : int;
  validation_aborts : int;
  response : Stats.summary;
  makespan_ms : float;
  messages : int;
  net_bytes : int;
  traffic : Net.traffic list;
  lock_requests : int;
  blocked_ops : int;
  op_undos : int;
  throughput : (float * float) list;
  concurrency : (float * int) list;
  structure_nodes : int;
}

(* One simulated client: submits its transactions back-to-back, resubmitting
   an aborted transaction up to [retries] times (the paper leaves
   resubmission "up to the application client", §2.4). *)
type client = {
  client_id : int;
  coordinator : int;
  rng : Rng.t;
  mutable remaining : int;
  mutable retries_left : int;
}

(* [fragments] pairs each generator fragment with its id pools. *)
let gen_transaction p (cl : client) fragments fresh =
  let update_txn = Rng.pct cl.rng p.update_txn_pct in
  List.init p.ops_per_txn (fun _ ->
      let doc, pools = Rng.pick cl.rng fragments in
      let op =
        if update_txn && Rng.pct cl.rng p.update_op_pct then
          Queries.gen_update cl.rng ~fresh pools
        else Queries.gen_query cl.rng pools
      in
      (doc.Doc.name, op))

(* The generated-and-fragmented database, precomputable once per sweep.
   Generation and fragmentation are pure functions of (seed, size, parts),
   and sites clone the fragment documents they host, so sharing one
   [database] across runs changes no run's outcome — it only stops a
   10-point client sweep from regenerating the same XMark base 10 times. *)
type database = {
  db_seed : int;
  db_size_mb : float;
  db_parts : int;
  db_fragments : Doc.t array;
}

let db_parts_of p = if p.n_fragments > 0 then p.n_fragments else p.n_sites

let build_database p =
  let base =
    Generator.generate ~name:"xmark"
      (Generator.params_of_mb ~seed:(p.seed + 1) p.base_size_mb)
  in
  let parts = db_parts_of p in
  { db_seed = p.seed;
    db_size_mb = p.base_size_mb;
    db_parts = parts;
    db_fragments = Array.of_list (Fragment.fragment base ~parts) }

let run ?instrument ?database p =
  if p.n_sites < 1 || p.n_clients < 1 then invalid_arg "Workload.run";
  let master = Rng.create p.seed in
  (* Database: XMark base, fragmented, allocated. *)
  let db =
    match database with
    | Some db ->
      if
        db.db_seed <> p.seed
        || db.db_size_mb <> p.base_size_mb
        || db.db_parts <> db_parts_of p
      then invalid_arg "Workload.run: database built for different params";
      db
    | None -> build_database p
  in
  let placements =
    Allocation.allocate ~n_sites:p.n_sites p.replication
      (Array.to_list db.db_fragments)
  in
  let sim = Sim.create () in
  let net = Net.of_config ~sim p.net_config in
  let config =
    { Cluster.protocol = p.protocol;
      cost = p.cost;
      deadlock_period_ms = p.deadlock_period_ms;
      storage = `Memory;
      commit = (if p.two_phase_commit then Cluster.Two_phase else Cluster.One_phase);
      deadlock_policy = p.deadlock_policy;
      op_timeout_ms = p.op_timeout_ms;
      retransmit_ms = p.retransmit_ms;
      txn_timeout_ms = p.txn_timeout_ms }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:p.n_sites config ~placements in
  Cluster.shutdown_when_idle cluster;
  (match instrument with Some f -> f cluster | None -> ());
  (* The generator's id pools, one walk per fragment. Sites hold clones, so
     these fragments never change and the pools stay exact for the run. *)
  let fragments = Array.map (fun d -> (d, Queries.pools d)) db.db_fragments in
  (* Unique suffixes for inserted entities, across all clients. *)
  let fresh_counter = ref 0 in
  let fresh () =
    incr fresh_counter;
    !fresh_counter
  in
  let clients =
    Array.init p.n_clients (fun i ->
        { client_id = i;
          coordinator = i mod p.n_sites;
          rng = Rng.split master;
          remaining = p.txns_per_client;
          retries_left = p.retries })
  in
  let rec submit_next (cl : client) ops =
    Cluster.submit cluster ~client:cl.client_id ~coordinator:cl.coordinator ~ops
      ~on_finish:(fun txn -> on_finish cl ops txn)
    |> ignore
  and on_finish (cl : client) ops (txn : Txn.t) =
    match txn.Txn.status with
    | Txn.Committed | Txn.Failed -> next_transaction cl
    | Txn.Aborted ->
      if cl.retries_left > 0 then begin
        cl.retries_left <- cl.retries_left - 1;
        submit_next cl ops
      end
      else next_transaction cl
    | Txn.Active | Txn.Waiting -> assert false
  and next_transaction (cl : client) =
    cl.remaining <- cl.remaining - 1;
    cl.retries_left <- p.retries;
    if cl.remaining > 0 then
      submit_next cl (gen_transaction p cl fragments fresh)
  in
  Array.iter
    (fun cl -> submit_next cl (gen_transaction p cl fragments fresh))
    clients;
  Sim.run sim;
  (* Collect. *)
  let s = Cluster.stats cluster in
  let planned = p.n_clients * p.txns_per_client in
  let response = Stats.summarize (Vec.to_list s.Cluster.response_times) in
  let makespan =
    if s.Cluster.last_finish > 0.0 then s.Cluster.last_finish else Sim.now sim
  in
  let bucket = if makespan > 0.0 then makespan /. 25.0 else 1.0 in
  let tl = Stats.Timeline.create ~bucket in
  Vec.iter (fun stamp -> Stats.Timeline.incr tl ~time:stamp) s.Cluster.commit_stamps;
  let structure_nodes =
    Array.fold_left
      (fun acc site ->
        let proto = site.Dtx.Site.protocol in
        List.fold_left
          (fun acc d -> acc + Protocol.structure_size proto d)
          acc (Protocol.docs proto))
      0 (Cluster.sites cluster)
  in
  { params = p;
    planned_txns = planned;
    committed = s.Cluster.committed;
    aborted = s.Cluster.aborted;
    failed = s.Cluster.failed;
    not_executed = planned - min planned s.Cluster.committed;
    deadlocks = s.Cluster.deadlock_aborts;
    validation_aborts = s.Cluster.validation_aborts;
    response;
    makespan_ms = makespan;
    messages = Net.messages net;
    net_bytes = Net.bytes_sent net;
    traffic = Net.traffic net;
    lock_requests = Cluster.total_lock_requests cluster;
    blocked_ops = Cluster.total_blocked_ops cluster;
    op_undos = s.Cluster.op_undos;
    throughput = Stats.Timeline.cumulative tl;
    concurrency = Vec.to_list s.Cluster.concurrency_samples;
    structure_nodes }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s %s rep=%s sites=%d clients=%d upd=%d%%/%d%% base=%.0fMB:@ \
     committed %d/%d (aborted %d, failed %d, deadlock aborts %d, validation \
     aborts %d)@ \
     response %a@ makespan %.1f ms, %d msgs, %d lock reqs, %d blocked ops, %d \
     op undos, structure %d nodes@]"
    (Protocol.kind_to_string r.params.protocol)
    "run"
    (Allocation.replication_to_string r.params.replication)
    r.params.n_sites r.params.n_clients r.params.update_txn_pct
    r.params.update_op_pct r.params.base_size_mb r.committed r.planned_txns
    r.aborted r.failed r.deadlocks r.validation_aborts Stats.pp_summary
    r.response r.makespan_ms
    r.messages r.lock_requests r.blocked_ops r.op_undos r.structure_nodes;
  if r.traffic <> [] then begin
    Format.fprintf ppf "@\n  traffic:";
    List.iter
      (fun (row : Net.traffic) ->
        Format.fprintf ppf " %s=%d/%dB"
          (Dtx_net.Msg.Kind.to_string row.Net.t_kind)
          row.Net.t_sent row.Net.t_bytes)
      r.traffic
  end

type script = {
  sc_client : int;
  sc_coordinator : int;
  sc_txns : (string * Op.t) list list;
}

let submit_script ?(retries = 0) cluster scripts =
  List.iter
    (fun sc ->
      if sc.sc_txns <> [] then begin
        let rec submit_txn remaining retries_left ops =
          Cluster.submit cluster ~client:sc.sc_client
            ~coordinator:sc.sc_coordinator ~ops
            ~on_finish:(fun txn ->
              match txn.Txn.status with
              | Txn.Aborted when retries_left > 0 ->
                submit_txn remaining (retries_left - 1) ops
              | Txn.Committed | Txn.Aborted | Txn.Failed -> next remaining
              | Txn.Active | Txn.Waiting -> assert false)
          |> ignore
        and next remaining =
          match remaining with
          | [] -> ()
          | ops :: rest -> submit_txn rest retries ops
        in
        next sc.sc_txns
      end)
    scripts

type aggregate = {
  runs : result list;
  mean_response : Stats.summary;
  mean_deadlocks : float;
  sd_deadlocks : float;
  mean_committed : float;
  mean_makespan : float;
}

let run_many ?(seeds = [ 7; 107; 207 ]) p =
  let runs = List.map (fun seed -> run { p with seed }) seeds in
  let responses = List.map (fun r -> r.response.Stats.mean) runs in
  let deadlocks = List.map (fun r -> float_of_int r.deadlocks) runs in
  let dl_summary = Stats.summarize deadlocks in
  { runs;
    mean_response = Stats.summarize responses;
    mean_deadlocks = dl_summary.Stats.mean;
    sd_deadlocks = dl_summary.Stats.stddev;
    mean_committed =
      Stats.mean (List.map (fun r -> float_of_int r.committed) runs);
    mean_makespan = Stats.mean (List.map (fun r -> r.makespan_ms) runs) }
