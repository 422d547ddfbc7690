(** One checked run: a seeded workload with the invariant checker attached
    and, given a fault plan, the plan injected. [dtx_cli analyze] and
    [chaos], the seeded-fault registry and the tests all wire runs here. *)

module Workload = Dtx_workload.Workload
module Fault_plan = Dtx_fault.Fault_plan

type outcome = {
  result : Workload.result;
  violations : Checker.violation list;  (** {!Checker.finish}'s verdict *)
  cluster : Dtx.Cluster.t;  (** the drained cluster, for post-run probes *)
}

(** [analyze --smoke]'s workload: XDGL, 6 clients on 3 sites, 2 paper-MB.
    Its t4 is a multi-site reader whose released locks writers acquire. *)
let smoke_params =
  { Workload.default_params with
    seed = 7; n_clients = 6; n_sites = 3; txns_per_client = 3;
    ops_per_txn = 4; update_txn_pct = 30; base_size_mb = 2.0 }

(** Run [p] with a fresh checker ([ring] and [mutate] as in
    {!Checker.create} and {!Checker.attach}). [None] is a fault-free run;
    [Some plan] injects the plan and arms the checker's partition oracle
    with its [cut]. One-phase commit has no prepare point and so no redo
    to replay after a crash (the paper's §5 gap that 2PC closes): a
    one-phase run drops the plan's crashes and keeps its other faults. *)
let run ?ring ?mutate (p : Workload.params) (plan : Fault_plan.t option) =
  let plan =
    if p.two_phase_commit then plan
    else Option.map (fun plan -> { plan with Fault_plan.crashes = [] }) plan
  in
  let checker =
    Checker.create ?ring ?link_oracle:(Option.map Fault_plan.cut plan) ()
  in
  let cluster = ref None in
  let result =
    Workload.run
      ~instrument:(fun c ->
        cluster := Some c;
        Option.iter (Dtx_fault.Injector.install c) plan;
        Checker.attach ?mutate checker c)
      p
  in
  { result; violations = Checker.finish checker; cluster = Option.get !cluster }
