(* Reliability features in action — the paper's §5 future-work list,
   implemented: two-phase commit with write-ahead logs, site crash and
   presumed-abort recovery, deadlock prevention policies, and lossy links
   with operation timeouts.

   Run with: dune exec examples/reliability.exe *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Wal = Dtx.Wal
module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module P = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Fault_plan = Dtx_fault.Fault_plan
module Injector = Dtx_fault.Injector

let ledger_text =
  {|<ledger><account><id>a1</id><balance>100</balance></account>
           <account><id>a2</id><balance>50</balance></account></ledger>|}

let replica cluster site =
  match Protocol.doc (Cluster.sites cluster).(site).Site.protocol "ledger" with
  | Some d -> d
  | None -> assert false

let fresh_cluster ?(commit = Cluster.Two_phase) ?(policy = Dtx.Site.Detection)
    ?(drop_pct = 0) () =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let ledger = Dtx_xml.Parser.parse ~name:"ledger" ledger_text in
  let config =
    { (Cluster.default_config ()) with
      commit;
      deadlock_policy = policy;
      deadlock_period_ms = 5.0;
      op_timeout_ms = (if drop_pct > 0 then Some 15.0 else None) }
  in
  let cluster =
    Cluster.create ~sim ~net ~n_sites:2 config
      ~placements:[ { Allocation.doc = ledger; sites = [ 0; 1 ] } ]
  in
  Cluster.shutdown_when_idle cluster;
  (* Loss is a fault plan: an always-on drop of unreliable traffic. *)
  if drop_pct > 0 then
    ignore (Injector.install cluster (Fault_plan.lossy ~seed:5 ~drop_pct));
  (sim, net, cluster)

let deposit i = Printf.sprintf "<entry><id>d%d</id><amount>%d</amount></entry>" i (10 * i)

let () =
  (* 1. Two-phase commit leaves a durable audit trail. *)
  print_endline "== 1. two-phase commit + write-ahead log ==";
  let sim, _, cluster = fresh_cluster () in
  ignore
    (Cluster.submit cluster ~client:1 ~coordinator:0
       ~ops:
         [ ( "ledger",
             Op.Insert
               { target = P.parse "/ledger/account[id = \"a1\"]";
                 pos = Op.Into;
                 fragment = deposit 1 } ) ]
       ~on_finish:(fun txn ->
         Printf.printf "deposit: %s\n" (Txn.status_to_string txn.Txn.status)));
  Sim.run sim;
  Array.iter
    (fun (s : Site.t) ->
      Printf.printf "site %d WAL: %s\n" s.Site.id
        (String.concat "; "
           (List.map
              (function
                | Wal.Prepared { txn; _ } -> Printf.sprintf "prepared t%d" txn
                | Wal.Committed { txn; _ } -> Printf.sprintf "committed t%d" txn
                | Wal.Aborted { txn; _ } -> Printf.sprintf "aborted t%d" txn)
              (Wal.entries s.Site.wal))))
    (Cluster.sites cluster);

  (* 2. Crash and presumed-abort recovery. *)
  print_endline "\n== 2. crash + recovery ==";
  let sim, _, cluster = fresh_cluster () in
  let submit_deposit i =
    ignore
      (Cluster.submit cluster ~client:i ~coordinator:0
         ~ops:
           [ ( "ledger",
               Op.Insert
                 { target = P.parse "/ledger/account[id = \"a2\"]";
                   pos = Op.Into;
                   fragment = deposit i } ) ]
         ~on_finish:(fun txn ->
           Printf.printf "deposit %d: %s\n" i (Txn.status_to_string txn.Txn.status)))
  in
  submit_deposit 1;
  Sim.run sim;
  Printf.printf "crashing site 1 (loses its memory)...\n";
  Cluster.crash_site cluster ~site:1;
  submit_deposit 2;
  (* cannot reach site 1's replica -> aborts/fails *)
  Sim.run sim;
  Cluster.restart_site cluster ~site:1;
  Sim.run sim;
  Printf.printf "site 1 recovered from its store; in-doubt txns: %d\n"
    (List.length (Wal.in_doubt (Cluster.sites cluster).(1).Site.wal));
  submit_deposit 3;
  Sim.run sim;
  let entries site =
    List.length (Eval.select (replica cluster site) (P.parse "//entry"))
  in
  Printf.printf
    "entries after recovery: site0=%d site1=%d (deposit 1 and 3 only; 2 rolled back)\n"
    (entries 0) (entries 1);

  (* 3. Deadlock prevention: the crossing-transactions scenario under
        wound-wait — no detector needed, the older transaction wins. *)
  print_endline "\n== 3. wound-wait prevention ==";
  let sim, _, cluster = fresh_cluster ~policy:Dtx.Site.Wound_wait () in
  let crossing name coord first second =
    ignore
      (Cluster.submit cluster ~client:coord ~coordinator:coord
         ~ops:
           [ ("ledger", Op.Query (P.parse first));
             ( "ledger",
               Op.Change { target = P.parse second; new_text = "77" } ) ]
         ~on_finish:(fun txn ->
           Printf.printf "%s: %s\n" name (Txn.status_to_string txn.Txn.status)))
  in
  crossing "older txn" 0 "/ledger/account[id = \"a1\"]" "/ledger/account[id = \"a2\"]/balance";
  crossing "younger txn" 1 "/ledger/account[id = \"a2\"]" "/ledger/account[id = \"a1\"]/balance";
  Sim.run sim;
  let s = Cluster.stats cluster in
  Printf.printf "wounded: %d, detector cycles found: %d\n" s.Cluster.wounded
    s.Cluster.distributed_deadlocks;

  (* 4. Lossy network with operation timeouts. *)
  print_endline "\n== 4. lossy links + timeouts ==";
  let sim, net, cluster = fresh_cluster ~commit:Cluster.One_phase ~drop_pct:15 () in
  let done_ = ref (0, 0) in
  for i = 1 to 10 do
    ignore
      (Cluster.submit cluster ~client:i ~coordinator:(i mod 2)
         ~ops:
           [ ( "ledger",
               Op.Insert
                 { target = P.parse "/ledger/account[id = \"a1\"]";
                   pos = Op.Into;
                   fragment = deposit (100 + i) } ) ]
         ~on_finish:(fun txn ->
           let c, a = !done_ in
           done_ :=
             if txn.Txn.status = Txn.Committed then (c + 1, a) else (c, a + 1)))
  done;
  Sim.run sim;
  let c, a = !done_ in
  Printf.printf
    "10 deposits over a 15%%-lossy link: %d committed, %d timed out/aborted \
     (%d messages dropped); replicas still agree: %b\n"
    c a (Net.dropped net)
    (Dtx_xml.Doc.equal_structure (replica cluster 0) (replica cluster 1));
  Format.printf "traffic by message type:@\n%a@." Net.pp_traffic net
