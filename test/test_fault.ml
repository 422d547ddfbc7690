(* Fault-plan machinery and recovery tests: plan semantics (windows, cuts,
   crash schedules), a QCheck property that message duplication and
   jitter-induced reordering leave every global invariant intact, and a
   crash-time sweep under two-phase commit asserting that each in-doubt
   transaction resolves by WAL redo replay. *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Wal = Dtx.Wal
module Participant = Dtx.Participant
module Protocol = Dtx_protocol.Protocol
module Workload = Dtx_workload.Workload
module Checker = Dtx_check.Checker
module Fault_plan = Dtx_fault.Fault_plan
module Injector = Dtx_fault.Injector

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Plan semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_windows_and_cuts () =
  let w = { Fault_plan.from_ms = 10.0; until_ms = 20.0 } in
  checkb "before" false (Fault_plan.in_window w 9.9);
  checkb "at start" true (Fault_plan.in_window w 10.0);
  checkb "half-open" false (Fault_plan.in_window w 20.0);
  let plan =
    { (Fault_plan.empty ~seed:1 ~horizon_ms:100.0) with
      Fault_plan.partitions =
        [ { p_window = { from_ms = 30.0; until_ms = 40.0 }; p_group = [ 0 ] } ];
      crashes =
        [ { c_site = 2; c_at_ms = 50.0; c_restart_after_ms = Some 10.0 } ]
    }
  in
  (* Partition: severed across the group boundary, both directions, only
     inside the window. *)
  checkb "cut in window" true (Fault_plan.cut plan ~time:35.0 ~src:0 ~dst:1);
  checkb "cut reverse" true (Fault_plan.cut plan ~time:35.0 ~src:1 ~dst:0);
  checkb "same side open" false (Fault_plan.cut plan ~time:35.0 ~src:1 ~dst:2);
  checkb "healed" false (Fault_plan.cut plan ~time:40.0 ~src:0 ~dst:1);
  checkb "local never cut" false (Fault_plan.cut plan ~time:35.0 ~src:0 ~dst:0);
  (* Crash: both endpoints of any link to the down site, until restart. *)
  checkb "up before crash" false (Fault_plan.crashed plan ~time:49.9 ~site:2);
  checkb "down" true (Fault_plan.crashed plan ~time:55.0 ~site:2);
  checkb "restarted" false (Fault_plan.crashed plan ~time:60.0 ~site:2);
  checkb "cut to crashed" true (Fault_plan.cut plan ~time:55.0 ~src:1 ~dst:2);
  checkb "cut from crashed" true (Fault_plan.cut plan ~time:55.0 ~src:2 ~dst:1)

let test_random_plans_self_heal () =
  (* Every generated fault must end inside the horizon, or chaos runs
     could wait forever on a partition that never heals. *)
  for seed = 1 to 200 do
    let p = Fault_plan.random ~seed ~n_sites:4 ~horizon_ms:160.0 in
    List.iter
      (fun (lf : Fault_plan.link_fault) ->
        checkb "link fault heals" true
          (lf.Fault_plan.lf_window.until_ms <= 160.0 *. 0.95))
      p.Fault_plan.link_faults;
    List.iter
      (fun (pa : Fault_plan.partition) ->
        checkb "partition heals" true
          (pa.Fault_plan.p_window.until_ms <= 160.0 *. 0.95))
      p.Fault_plan.partitions;
    List.iter
      (fun (c : Fault_plan.crash) ->
        checkb "crash restarts" true (c.Fault_plan.c_restart_after_ms <> None))
      p.Fault_plan.crashes
  done;
  (* Same seed, same plan — the whole point of scripted chaos. *)
  let a = Fault_plan.random ~seed:42 ~n_sites:4 ~horizon_ms:160.0 in
  let b = Fault_plan.random ~seed:42 ~n_sites:4 ~horizon_ms:160.0 in
  checkb "deterministic" true (a = b)

(* ------------------------------------------------------------------ *)
(* Link loss: which traffic a drop fault may touch                     *)
(* ------------------------------------------------------------------ *)

(* Twenty messages sent [src -> dst] on [channel] across a two-site
   cluster under an always-on 100% drop plan, with the cluster's message
   router replaced by a counter: (delivered, dropped). *)
let under_total_loss ~src ~dst channel =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let doc = Dtx_xml.Parser.parse ~name:"d" "<r/>" in
  let cluster =
    Cluster.create ~sim ~net ~n_sites:2
      (Cluster.default_config ())
      ~placements:[ { Dtx_frag.Allocation.doc; sites = [ 0; 1 ] } ]
  in
  Cluster.shutdown_when_idle cluster;
  ignore (Injector.install cluster (Fault_plan.lossy ~seed:3 ~drop_pct:100));
  let delivered = ref 0 in
  Net.set_handler net (fun ~src:_ ~dst:_ _ -> incr delivered);
  for txn = 1 to 20 do
    Net.dispatch net ~src ~dst ~channel (Msg.Commit { txn })
  done;
  Sim.run sim;
  (!delivered, Net.dropped net)

let test_total_loss_drops_remote_unreliable () =
  let delivered, dropped = under_total_loss ~src:0 ~dst:1 Net.Unreliable in
  check_int "none delivered" 0 delivered;
  check_int "every one dropped" 20 dropped

let test_total_loss_spares_reliable () =
  let delivered, dropped = under_total_loss ~src:0 ~dst:1 Net.Reliable in
  check_int "all delivered" 20 delivered;
  check_int "none dropped" 0 dropped

let test_total_loss_spares_local () =
  let delivered, dropped = under_total_loss ~src:1 ~dst:1 Net.Unreliable in
  check_int "all delivered" 20 delivered;
  check_int "none dropped" 0 dropped

(* ------------------------------------------------------------------ *)
(* Shared harness: one checked workload run under a fault plan         *)
(* ------------------------------------------------------------------ *)

let checked_run ?mutate_count params plan =
  let checker = Checker.create ~ring:512 () in
  let cluster_ref = ref None in
  let r =
    Workload.run
      ~instrument:(fun cluster ->
        cluster_ref := Some cluster;
        let inj = Injector.install cluster plan in
        Checker.set_link_oracle checker (Some (Injector.link_oracle inj));
        Checker.attach ?mutate:mutate_count checker cluster)
      params
  in
  let cluster =
    match !cluster_ref with
    | Some c -> c
    | None -> Alcotest.fail "instrument hook never ran"
  in
  (r, cluster, Checker.finish checker)

let fail_on_violations label vs =
  match vs with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d violation(s), first: %a" label (List.length vs)
      Checker.pp_violation v

(* ------------------------------------------------------------------ *)
(* Duplication + reordering property                                   *)
(* ------------------------------------------------------------------ *)

(* Heavy duplication plus jittered delivery (copies overtake each other)
   must be absorbed by the (txn, seq) reply cache and the per-site pending
   sets: no double-apply, no lock imbalance, the committed history stays
   serializable — under both one-phase and 2PC. *)
let prop_dup_reorder_invariants_hold =
  QCheck.Test.make ~name:"duplication + reordering preserve invariants"
    ~count:20
    QCheck.(quad (int_bound 1000) (int_bound 1000) (int_range 20 80) (int_bound 5))
    (fun (plan_seed, wl_seed, dup_pct, jitter) ->
      let plan =
        { (Fault_plan.empty ~seed:plan_seed ~horizon_ms:300.0) with
          Fault_plan.link_faults =
            [ { lf_window = { from_ms = 0.0; until_ms = 280.0 };
                lf_link = Fault_plan.any_link;
                lf_kinds = [];
                lf_drop_pct = 0;
                lf_dup_pct = dup_pct;
                lf_delay_ms = 0.3;
                lf_jitter_ms = 0.5 +. float_of_int jitter }
            ]
        }
      in
      List.for_all
        (fun two_phase ->
          let params =
            { Workload.default_params with
              seed = wl_seed; n_sites = 3; n_clients = 4;
              txns_per_client = 3; ops_per_txn = 4; update_txn_pct = 50;
              base_size_mb = 2.0; two_phase_commit = two_phase;
              retransmit_ms = Some 5.0; txn_timeout_ms = Some 1000.0 }
          in
          let r, _, vs = checked_run params plan in
          if vs <> [] then
            QCheck.Test.fail_reportf "%s: %d violation(s), first: %a"
              (if two_phase then "2pc" else "one-phase")
              (List.length vs) Checker.pp_violation (List.hd vs);
          (* Duplication must not manufacture or lose transactions. *)
          r.Workload.committed + r.Workload.aborted + r.Workload.failed
          = r.Workload.planned_txns)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Crash at every commit phase (2PC + WAL replay)                      *)
(* ------------------------------------------------------------------ *)

(* Crash one site at t for a dense sweep of t covering execution, prepare,
   commit and post-commit windows. Every run must stay violation-free
   (the checker's recovery invariants include "every prepared transaction
   resolves" and "no committed write lost"), every WAL must drain its
   in-doubt set, and across the sweep at least one in-doubt transaction
   must resolve to COMMIT via redo replay — i.e. the sweep really does
   catch transactions inside the prepare/commit window, not just before
   or after it. *)
let test_crash_sweep_two_phase () =
  let resolved_commit = ref 0 in
  let resolved_abort = ref 0 in
  let recoveries = ref 0 in
  let mutate ev =
    (match ev with
     | Checker.Part { ev = Participant.Recovery_begun { in_doubt }; _ } ->
       recoveries := !recoveries + List.length in_doubt
     | Checker.Part { ev = Participant.Recovery_resolved { committed; _ }; _ } ->
       incr (if committed then resolved_commit else resolved_abort)
     | _ -> ());
    Some ev
  in
  let t = ref 1.0 in
  while !t <= 25.0 do
    let plan =
      { (Fault_plan.empty ~seed:0 ~horizon_ms:100.0) with
        Fault_plan.crashes =
          [ { c_site = 1; c_at_ms = !t; c_restart_after_ms = Some 8.0 } ]
      }
    in
    let params =
      { Workload.default_params with
        seed = 11; protocol = Protocol.xdgl; n_sites = 3; n_clients = 4;
        txns_per_client = 3; ops_per_txn = 3; update_txn_pct = 80;
        base_size_mb = 2.0; two_phase_commit = true;
        retransmit_ms = Some 3.0; txn_timeout_ms = Some 500.0 }
    in
    let label = Printf.sprintf "crash at %.1fms" !t in
    let r, cluster, vs = checked_run ~mutate_count:mutate params plan in
    fail_on_violations label vs;
    checkb (label ^ ": some progress") true (r.Workload.committed > 0);
    Array.iter
      (fun (s : Site.t) ->
        check_int
          (Printf.sprintf "%s: site %d WAL drained" label s.Site.id)
          0
          (List.length (Wal.in_doubt s.Site.wal)))
      (Cluster.sites cluster);
    t := !t +. 0.5
  done;
  checkb "sweep hit the in-doubt window" true (!recoveries > 0);
  checkb "some transaction resolved by redo replay" true (!resolved_commit > 0)

(* A crash that never restarts must not deadlock the rest of the cluster:
   the retransmission give-up and transaction-timeout valves abort the
   stranded transactions and the run still drains cleanly. *)
let test_crash_without_restart_drains () =
  let plan =
    { (Fault_plan.empty ~seed:0 ~horizon_ms:100.0) with
      Fault_plan.crashes =
        [ { c_site = 2; c_at_ms = 6.0; c_restart_after_ms = None } ]
    }
  in
  let params =
    { Workload.default_params with
      seed = 3; n_sites = 3; n_clients = 4; txns_per_client = 3;
      ops_per_txn = 3; update_txn_pct = 60; base_size_mb = 2.0;
      two_phase_commit = true; retransmit_ms = Some 2.0;
      txn_timeout_ms = Some 200.0 }
  in
  let r, _, vs = checked_run params plan in
  fail_on_violations "no-restart crash" vs;
  check_int "all transactions accounted for" r.Workload.planned_txns
    (r.Workload.committed + r.Workload.aborted + r.Workload.failed)

let () =
  Alcotest.run "fault"
    [ ( "plans",
        [ Alcotest.test_case "windows and cuts" `Quick test_windows_and_cuts;
          Alcotest.test_case "random plans self-heal" `Quick
            test_random_plans_self_heal ] );
      ( "link loss",
        [ Alcotest.test_case "drops remote unreliable" `Quick
            test_total_loss_drops_remote_unreliable;
          Alcotest.test_case "spares reliable traffic" `Quick
            test_total_loss_spares_reliable;
          Alcotest.test_case "spares local traffic" `Quick
            test_total_loss_spares_local ] );
      ( "dup+reorder",
        [ QCheck_alcotest.to_alcotest prop_dup_reorder_invariants_hold ] );
      ( "crash recovery",
        [ Alcotest.test_case "crash at every commit phase" `Quick
            test_crash_sweep_two_phase;
          Alcotest.test_case "crash without restart drains" `Quick
            test_crash_without_restart_drains ] ) ]
