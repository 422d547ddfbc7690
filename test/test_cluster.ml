(* Tests for the DTX cluster: coordinator/participant execution, commit and
   abort propagation, waiting/waking, deadlock handling, failure injection,
   determinism. *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module P = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Storage = Dtx_storage.Storage
module Doc = Dtx_xml.Doc
module Node = Dtx_xml.Node
module Xml_parser = Dtx_xml.Parser

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let d1_text =
  "<people><person><id>4</id><name>Ana</name></person></people>"

let d2_text =
  "<products><product><id>14</id><description>Pen</description><price>1.20</price></product></products>"

(* A two-site cluster: d1 on sites {0,1} (replicated), d2 on {1} only. *)
let make_cluster ?(protocol = Protocol.xdgl) ?(deadlock_period_ms = 5.0)
    ?(commit = Cluster.One_phase) () =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d1 = Xml_parser.parse ~name:"d1" d1_text in
  let d2 = Xml_parser.parse ~name:"d2" d2_text in
  let placements =
    [ { Allocation.doc = d1; sites = [ 0; 1 ] };
      { Allocation.doc = d2; sites = [ 1 ] } ]
  in
  let config =
    { (Cluster.default_config ~protocol ()) with deadlock_period_ms; commit }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
  Cluster.shutdown_when_idle cluster;
  (sim, net, cluster)

let submit cluster ~coordinator ops k =
  Cluster.submit cluster ~client:0 ~coordinator ~ops ~on_finish:k |> ignore

let replica cluster ~site ~doc =
  let s = (Cluster.sites cluster).(site) in
  match Protocol.doc s.Site.protocol doc with
  | Some d -> d
  | None -> Alcotest.failf "site %d has no %s" site doc

let q s = Op.Query (P.parse s)

let status_name = function
  | Some st -> Txn.status_to_string st
  | None -> "gone"

(* --- basic lifecycle ----------------------------------------------------- *)

let test_read_only_commit () =
  let sim, _, cluster = make_cluster () in
  let result = ref None in
  submit cluster ~coordinator:0
    [ ("d1", q "/people/person/name"); ("d2", q "/products/product/price") ]
    (fun txn -> result := Some txn);
  Sim.run sim;
  match !result with
  | Some txn ->
    checkb "committed" true (txn.Txn.status = Txn.Committed);
    checkb "took time" true (Txn.response_time txn > 0.0);
    check "stats" 1 (Cluster.stats cluster).Cluster.committed
  | None -> Alcotest.fail "transaction never finished"

let test_update_replicated_everywhere () =
  let sim, _, cluster = make_cluster () in
  let done_ = ref false in
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people";
            pos = Op.Into;
            fragment = "<person><id>22</id><name>Patricia</name></person>" } ) ]
    (fun txn ->
      done_ := true;
      checkb "committed" true (txn.Txn.status = Txn.Committed));
  Sim.run sim;
  checkb "finished" true !done_;
  (* Both replicas of d1 got the insert and agree. *)
  let r0 = replica cluster ~site:0 ~doc:"d1" in
  let r1 = replica cluster ~site:1 ~doc:"d1" in
  check "site 0 sees it" 1
    (List.length (Eval.select r0 (P.parse "//person[id = \"22\"]")));
  checkb "replicas equal" true (Doc.equal_structure r0 r1);
  (* Commit persisted to storage (DataManager write-back). *)
  let st0 = (Cluster.sites cluster).(0).Site.storage in
  match Storage.load st0 "d1" with
  | Some stored ->
    check "persisted" 1
      (List.length (Eval.select stored (P.parse "//person[id = \"22\"]")))
  | None -> Alcotest.fail "d1 not in storage"

let test_failed_op_aborts_and_undoes () =
  let sim, _, cluster = make_cluster () in
  let statuses = ref [] in
  (* Op 1 inserts (succeeds), op 2 removes a missing target (fails): the
     whole transaction must abort and the insert must be rolled back. *)
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>9</id></person>" } );
      ("d1", Op.Remove (P.parse "//person[id = \"12345\"]")) ]
    (fun txn -> statuses := txn.Txn.status :: !statuses);
  Sim.run sim;
  Alcotest.(check (list string)) "aborted" [ "aborted" ]
    (List.map Txn.status_to_string !statuses);
  let r0 = replica cluster ~site:0 ~doc:"d1" in
  check "insert undone at site 0" 0
    (List.length (Eval.select r0 (P.parse "//person[id = \"9\"]")));
  let r1 = replica cluster ~site:1 ~doc:"d1" in
  checkb "replicas equal after abort" true (Doc.equal_structure r0 r1);
  check "locks all released" 0
    (Array.fold_left
       (fun acc (s : Site.t) -> acc + Dtx_locks.Table.lock_count s.Site.table)
       0 (Cluster.sites cluster))

let test_empty_txn () =
  let sim, _, cluster = make_cluster () in
  let st = ref None in
  submit cluster ~coordinator:1 [] (fun txn -> st := Some txn.Txn.status);
  Sim.run sim;
  checkb "committed" true (!st = Some Txn.Committed);
  ignore cluster

let test_unknown_doc_aborts () =
  let sim, _, cluster = make_cluster () in
  let st = ref None in
  submit cluster ~coordinator:0 [ ("ghost", q "/x") ] (fun txn -> st := Some txn.Txn.status);
  Sim.run sim;
  checkb "aborted" true (!st = Some Txn.Aborted);
  check "not a deadlock" 0 (Cluster.stats cluster).Cluster.deadlock_aborts

let test_bad_coordinator_rejected () =
  let _, _, cluster = make_cluster () in
  Alcotest.check_raises "bad site" (Invalid_argument "Cluster.submit: bad coordinator site")
    (fun () -> submit cluster ~coordinator:7 [] (fun _ -> ()))

(* --- blocking and waking -------------------------------------------------- *)

let test_conflicting_txns_serialize () =
  let sim, _, cluster = make_cluster () in
  let finished = ref [] in
  (* Reader holds ST over products for the whole transaction (three ops);
     the writer's insert needs IX on the same DataGuide node, so it must
     wait and then commit after the reader releases. *)
  submit cluster ~coordinator:1
    [ ("d2", q "/products/product");
      ("d2", q "/products/product/price");
      ("d2", q "/products/product/description") ]
    (fun txn -> finished := ("reader", txn.Txn.status, txn.Txn.finished_at) :: !finished);
  submit cluster ~coordinator:1
    [ ( "d2",
        Op.Insert
          { target = P.parse "/products";
            pos = Op.Into;
            fragment = "<product><id>13</id><description>Mouse</description><price>10.30</price></product>" } ) ]
    (fun txn -> finished := ("writer", txn.Txn.status, txn.Txn.finished_at) :: !finished);
  Sim.run sim;
  check "both finished" 2 (List.length !finished);
  List.iter
    (fun (who, st, _) ->
      checkb (who ^ " committed") true (st = Txn.Committed))
    !finished;
  let t_of who = List.find (fun (w, _, _) -> w = who) !finished in
  let _, _, reader_t = t_of "reader" and _, _, writer_t = t_of "writer" in
  checkb "writer finished after reader" true (writer_t > reader_t);
  checkb "some blocking happened" true (Cluster.total_blocked_ops cluster > 0);
  (* And the insert is there. *)
  check "product inserted" 1
    (List.length
       (Eval.select (replica cluster ~site:1 ~doc:"d2")
          (P.parse "//product[id = \"13\"]")))

let test_paper_scenario_deadlock () =
  (* §2.4: t1 = query d1, insert into d2; t2 = query d2, insert into d1.
     Cross conflicts produce a distributed deadlock; the newest transaction
     (t2) is the victim; t1 commits. *)
  let sim, _, cluster = make_cluster () in
  let outcome = Hashtbl.create 4 in
  submit cluster ~coordinator:0
    [ ("d1", q "/people/person[id = \"4\"]");
      ( "d2",
        Op.Insert
          { target = P.parse "/products";
            pos = Op.Into;
            fragment = "<product><id>13</id><description>Mouse</description><price>10.30</price></product>" } ) ]
    (fun txn -> Hashtbl.replace outcome "t1" txn.Txn.status);
  submit cluster ~coordinator:1
    [ ("d2", q "/products/product");
      ( "d1",
        Op.Insert
          { target = P.parse "/people";
            pos = Op.Into;
            fragment = "<person><id>22</id><name>Patricia</name></person>" } ) ]
    (fun txn -> Hashtbl.replace outcome "t2" txn.Txn.status);
  Sim.run sim;
  checkb "t1 committed" true (Hashtbl.find_opt outcome "t1" = Some Txn.Committed);
  checkb "t2 aborted (newest in cycle)" true
    (Hashtbl.find_opt outcome "t2" = Some Txn.Aborted);
  let s = Cluster.stats cluster in
  check "one deadlock abort" 1 s.Cluster.deadlock_aborts;
  checkb "detector found it" true
    (s.Cluster.distributed_deadlocks + s.Cluster.local_deadlocks >= 1);
  (* t1's product is in; t2's person is not. *)
  check "Mouse inserted" 1
    (List.length
       (Eval.select (replica cluster ~site:1 ~doc:"d2") (P.parse "//product[id = \"13\"]")));
  check "Patricia rolled back" 0
    (List.length
       (Eval.select (replica cluster ~site:0 ~doc:"d1") (P.parse "//person[id = \"22\"]")));
  checkb "d1 replicas agree" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"))

(* --- failure injection ---------------------------------------------------- *)

let test_site_failure_aborts () =
  let sim, _, cluster = make_cluster () in
  Cluster.crash_site cluster ~site:1;
  let st = ref None in
  submit cluster ~coordinator:0 [ ("d2", q "/products/product") ] (fun txn ->
      st := Some txn.Txn.status);
  Sim.run sim;
  (* d2 only lives on the failed site: the op fails, the abort protocol also
     cannot complete there, so per §2.2 the transaction ends as failed. *)
  checkb "aborted or failed" true (!st = Some Txn.Aborted || !st = Some Txn.Failed);
  check "nothing committed" 0 (Cluster.stats cluster).Cluster.committed

let test_crash_recovery_cycle () =
  let sim, _, cluster = make_cluster () in
  let statuses = ref [] in
  let note name txn = statuses := (name, txn.Txn.status) :: !statuses in
  (* t1 commits an insert into d1 (replicated at sites 0 and 1). *)
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>7</id></person>" } ) ]
    (note "t1");
  Sim.run sim;
  (* Site 1 crashes, losing its memory. *)
  Cluster.crash_site cluster ~site:1;
  (* t2 needs d1 at both sites; site 1 is down, so it cannot commit. *)
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>8</id></person>" } ) ]
    (note "t2");
  Sim.run sim;
  (* Recovery: reload committed state from the durable store. *)
  Cluster.restart_site cluster ~site:1;
  Sim.run sim;
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>9</id></person>" } ) ]
    (note "t3");
  Sim.run sim;
  let status name = List.assoc name !statuses in
  checkb "t1 committed" true (status "t1" = Txn.Committed);
  checkb "t2 aborted or failed" true
    (status "t2" = Txn.Aborted || status "t2" = Txn.Failed);
  checkb "t3 committed after recovery" true (status "t3" = Txn.Committed);
  let r0 = replica cluster ~site:0 ~doc:"d1" and r1 = replica cluster ~site:1 ~doc:"d1" in
  checkb "replicas converged after recovery" true (Doc.equal_structure r0 r1);
  check "t1's person survived the crash" 1
    (List.length (Eval.select r1 (P.parse "//person[id = \"7\"]")));
  check "t2's person nowhere" 0
    (List.length (Eval.select r0 (P.parse "//person[id = \"8\"]")));
  check "t3's person everywhere" 1
    (List.length (Eval.select r1 (P.parse "//person[id = \"9\"]")))

let test_history_serializable () =
  let sim, _, cluster = make_cluster () in
  let h = Cluster.enable_history cluster in
  submit cluster ~coordinator:0
    [ ("d1", q "/people/person");
      ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>5</id></person>" } ) ]
    (fun _ -> ());
  submit cluster ~coordinator:1
    [ ("d1", q "/people/person/name");
      ( "d1",
        Op.Change { target = P.parse "//person[id = \"4\"]/name"; new_text = "Ana B" } ) ]
    (fun _ -> ());
  Sim.run sim;
  checkb "history recorded accesses" true (Dtx.History.size h > 0);
  (match Cluster.check_serializable cluster with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  checkb "committed list matches stats" true
    (List.length (Dtx.History.committed h) = (Cluster.stats cluster).Cluster.committed)

let test_history_requires_enabling () =
  let _, _, cluster = make_cluster () in
  Alcotest.check_raises "not enabled"
    (Invalid_argument "Cluster.check_serializable: history not enabled")
    (fun () -> ignore (Cluster.check_serializable cluster))

let test_site_failure_heals () =
  let sim, _, cluster = make_cluster () in
  Cluster.crash_site cluster ~site:1;
  Cluster.restart_site cluster ~site:1;
  let st = ref None in
  submit cluster ~coordinator:0 [ ("d2", q "/products/product") ] (fun txn ->
      st := Some txn.Txn.status);
  Sim.run sim;
  checkb "healed -> commits" true (!st = Some Txn.Committed)

(* --- two-phase commit and the write-ahead log ------------------------------ *)

module Wal = Dtx.Wal

let test_wal_unit () =
  let w = Wal.create () in
  checkb "unknown" true (Wal.outcome_of w 1 = `Unknown);
  Wal.append w (Wal.Prepared { txn = 1; time = 1.0; coord = 0; redo = [] });
  Wal.append w
    (Wal.Prepared
       { txn = 2; time = 1.5; coord = 0;
         redo = [ ("d1", "REMOVE /products/product[1]") ] });
  Wal.append w (Wal.Committed { txn = 1; time = 2.0 });
  checkb "committed" true (Wal.outcome_of w 1 = `Committed);
  checkb "in doubt" true (Wal.outcome_of w 2 = `In_doubt);
  Alcotest.(check (list int)) "in_doubt list" [ 2 ] (Wal.in_doubt w);
  Alcotest.(check (list int)) "resolved" [ 2 ] (Wal.resolve_presumed_abort w);
  checkb "now aborted" true (Wal.outcome_of w 2 = `Aborted);
  Alcotest.(check (list int)) "none left" [] (Wal.in_doubt w);
  check "entries" 4 (Wal.length w)

let test_two_phase_commit_works () =
  let sim, _, cluster = make_cluster ~commit:Cluster.Two_phase () in
  let st = ref None in
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>77</id></person>" } ) ]
    (fun txn -> st := Some txn.Txn.status);
  Sim.run sim;
  checkb "committed" true (!st = Some Txn.Committed);
  (* Both involved sites logged Prepared then Committed. *)
  Array.iter
    (fun (s : Site.t) ->
      let entries = Wal.entries s.Site.wal in
      checkb "prepared logged" true
        (List.exists (function Wal.Prepared _ -> true | _ -> false) entries);
      checkb "committed logged" true
        (List.exists (function Wal.Committed _ -> true | _ -> false) entries);
      Alcotest.(check (list int)) "nothing in doubt" [] (Wal.in_doubt s.Site.wal))
    (Cluster.sites cluster);
  checkb "replicas equal" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"))

let test_two_phase_costs_a_round () =
  let run commit =
    let sim, net, cluster = make_cluster ~commit () in
    let finished = ref 0.0 in
    submit cluster ~coordinator:0
      [ ("d1", q "/people/person") ]
      (fun txn -> finished := Txn.response_time txn);
    Sim.run sim;
    (!finished, Net.messages net, cluster)
  in
  let t1, m1, _ = run Cluster.One_phase in
  let t2, m2, _ = run Cluster.Two_phase in
  checkb "2PC slower" true (t2 > t1);
  checkb "2PC sends more messages" true (m2 > m1)

let test_two_phase_crash_recovery () =
  (* Crash site 1 while a two-phase workload is in flight; whatever point
     the protocol reached, recovery must leave no in-doubt transactions and
     consistent replicas. *)
  let sim, _, cluster = make_cluster ~commit:Cluster.Two_phase () in
  for i = 0 to 4 do
    submit cluster ~coordinator:(i mod 2)
      [ ( "d1",
          Op.Insert
            { target = P.parse "/people";
              pos = Op.Into;
              fragment = Printf.sprintf "<person><id>c%d</id></person>" i } ) ]
      (fun _ -> ())
  done;
  (* Crash mid-flight. *)
  ignore (Sim.schedule sim ~delay:1.2 (fun () -> Cluster.crash_site cluster ~site:1));
  Sim.run sim;
  Cluster.restart_site cluster ~site:1;
  Sim.run sim;
  Alcotest.(check (list int)) "no in-doubt txns after recovery" []
    (Wal.in_doubt (Cluster.sites cluster).(1).Site.wal);
  (* Every transaction reached a final state. *)
  check "none active" 0 (Cluster.active_txns cluster);
  (* The recovered replica equals the committed store state; committed
     transactions' effects survived, in-flight ones are absent. *)
  let s = Cluster.stats cluster in
  let r1 = replica cluster ~site:1 ~doc:"d1" in
  let persons =
    List.length (Eval.select r1 (P.parse "/people/person")) - 1 (* Ana *)
  in
  check "recovered state holds exactly the committed inserts" s.Cluster.committed
    persons

let test_cluster_on_filesystem_storage () =
  (* The whole mechanism over the on-disk DataManager backend: commits write
     back into the site's directory, a crash loses memory, recovery reloads
     from the files. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dtx_fs_cluster_%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d1 = Xml_parser.parse ~name:"d1" d1_text in
  let config =
    { (Cluster.default_config ()) with
      storage = `Filesystem dir;
      deadlock_period_ms = 5.0 }
  in
  let cluster =
    Cluster.create ~sim ~net ~n_sites:2 config
      ~placements:[ { Allocation.doc = d1; sites = [ 0; 1 ] } ]
  in
  Cluster.shutdown_when_idle cluster;
  let st = ref None in
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people"; pos = Op.Into; fragment = "<person><id>pg</id></person>" } ) ]
    (fun txn -> st := Some txn.Txn.status);
  Sim.run sim;
  checkb "committed over filesystem storage" true (!st = Some Txn.Committed);
  (match
     Storage.load (Storage.filesystem ~dir:(Filename.concat dir "site1")) "d1"
   with
   | Some d ->
     check "commit wrote the insert back to disk" 1
       (List.length (Eval.select d (P.parse "//person[id = \"pg\"]")))
   | None -> Alcotest.fail "d1 missing from site 1's directory");
  Cluster.crash_site cluster ~site:1;
  Cluster.restart_site cluster ~site:1;
  Sim.run sim;
  check "recovered replica holds the committed insert" 1
    (List.length
       (Eval.select (replica cluster ~site:1 ~doc:"d1") (P.parse "//person[id = \"pg\"]")));
  checkb "replicas equal" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* --- deadlock prevention policies ------------------------------------------- *)

let make_policy_cluster policy =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d1 = Xml_parser.parse ~name:"d1" d1_text in
  let d2 = Xml_parser.parse ~name:"d2" d2_text in
  let placements =
    [ { Allocation.doc = d1; sites = [ 0; 1 ] };
      { Allocation.doc = d2; sites = [ 1 ] } ]
  in
  let config =
    { (Cluster.default_config ()) with
      deadlock_period_ms = 5.0;
      deadlock_policy = policy }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
  Cluster.shutdown_when_idle cluster;
  (sim, cluster)

(* The §2.4 crossing transactions again — under prevention the cycle can
   never form, so the detector finds nothing, yet progress is preserved. *)
let crossing_txns cluster =
  let outcome = Hashtbl.create 4 in
  ignore
    (Cluster.submit cluster ~client:1 ~coordinator:0
       ~ops:
         [ ("d1", q "/people/person[id = \"4\"]");
           ( "d2",
             Op.Insert
               { target = P.parse "/products"; pos = Op.Into;
                 fragment = "<product><id>13</id></product>" } ) ]
       ~on_finish:(fun txn -> Hashtbl.replace outcome "t1" txn.Txn.status));
  ignore
    (Cluster.submit cluster ~client:2 ~coordinator:1
       ~ops:
         [ ("d2", q "/products/product");
           ( "d1",
             Op.Insert
               { target = P.parse "/people"; pos = Op.Into;
                 fragment = "<person><id>22</id></person>" } ) ]
       ~on_finish:(fun txn -> Hashtbl.replace outcome "t2" txn.Txn.status));
  outcome

let test_wait_die () =
  let sim, cluster = make_policy_cluster Dtx.Site.Wait_die in
  let outcome = crossing_txns cluster in
  Sim.run sim;
  let s = Cluster.stats cluster in
  (* t1 is older: it survives; t2 dies when it meets t1's locks. *)
  checkb "t1 committed" true (Hashtbl.find_opt outcome "t1" = Some Txn.Committed);
  checkb "t2 died" true (Hashtbl.find_opt outcome "t2" = Some Txn.Aborted);
  check "no distributed deadlock possible" 0 s.Cluster.distributed_deadlocks;
  check "nothing wounded" 0 s.Cluster.wounded;
  checkb "death counted as deadlock abort" true (s.Cluster.deadlock_aborts >= 1)

let test_wound_wait () =
  let sim, cluster = make_policy_cluster Dtx.Site.Wound_wait in
  let outcome = crossing_txns cluster in
  Sim.run sim;
  let s = Cluster.stats cluster in
  (* The older t1 wounds t2 when it needs t2's locks. *)
  checkb "t1 committed" true (Hashtbl.find_opt outcome "t1" = Some Txn.Committed);
  checkb "t2 wounded -> aborted" true
    (Hashtbl.find_opt outcome "t2" = Some Txn.Aborted);
  checkb "a wound happened" true (s.Cluster.wounded >= 1);
  check "no distributed deadlock possible" 0 s.Cluster.distributed_deadlocks;
  check "no locks leak" 0
    (Array.fold_left
       (fun acc (site : Site.t) -> acc + Dtx_locks.Table.lock_count site.Site.table)
       0 (Cluster.sites cluster))

let test_prevention_policies_converge () =
  List.iter
    (fun policy ->
      let sim, cluster = make_policy_cluster policy in
      for i = 0 to 11 do
        Cluster.submit cluster ~client:i ~coordinator:(i mod 2)
          ~ops:
            [ ( "d1",
                Op.Insert
                  { target = P.parse "/people"; pos = Op.Into;
                    fragment = Printf.sprintf "<person><id>q%d</id></person>" i } );
              ("d1", q "/people/person") ]
          ~on_finish:(fun _ -> ())
        |> ignore
      done;
      Sim.run sim;
      check "all done" 0 (Cluster.active_txns cluster);
      checkb "replicas equal" true
        (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
           (replica cluster ~site:1 ~doc:"d1")))
    [ Dtx.Site.Detection; Dtx.Site.Wait_die; Dtx.Site.Wound_wait ]

(* --- lossy links + timeouts ------------------------------------------------- *)

let test_lossy_network_all_txns_terminate () =
  (* With 10% operation-message loss and timeouts, every transaction still
     reaches a final state, locks never leak, and replicas stay equal. *)
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d1 = Xml_parser.parse ~name:"d1" d1_text in
  let placements = [ { Allocation.doc = d1; sites = [ 0; 1 ] } ] in
  let config =
    { (Cluster.default_config ()) with
      deadlock_period_ms = 5.0;
      op_timeout_ms = Some 15.0 }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
  Cluster.shutdown_when_idle cluster;
  Dtx_fault.Injector.install cluster
    (Dtx_fault.Fault_plan.lossy ~seed:99 ~drop_pct:10);
  let finished = ref 0 in
  for i = 0 to 19 do
    Cluster.submit cluster ~client:i ~coordinator:(i mod 2)
      ~ops:
        [ ( "d1",
            Op.Insert
              { target = P.parse "/people";
                pos = Op.Into;
                fragment = Printf.sprintf "<person><id>x%d</id></person>" i } ) ]
      ~on_finish:(fun _ -> incr finished)
    |> ignore
  done;
  Sim.run sim;
  check "all 20 finished" 20 !finished;
  check "none stuck" 0 (Cluster.active_txns cluster);
  checkb "messages were dropped" true (Net.dropped net > 0);
  let s = Cluster.stats cluster in
  checkb "some committed" true (s.Cluster.committed > 0);
  checkb "some timed out / aborted" true (s.Cluster.aborted > 0);
  check "committed + aborted + failed = 20" 20
    (s.Cluster.committed + s.Cluster.aborted + s.Cluster.failed);
  Array.iter
    (fun (site : Site.t) ->
      check "no residual locks" 0 (Dtx_locks.Table.lock_count site.Site.table))
    (Cluster.sites cluster);
  checkb "replicas equal" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"))

let test_reliable_network_drops_nothing () =
  let sim, net, cluster = make_cluster () in
  submit cluster ~coordinator:0
    [ ("d1", q "/people/person") ]
    (fun _ -> ());
  Sim.run sim;
  checkb "traffic flowed" true (Net.messages net > 0);
  check "nothing dropped without a fault plan" 0 (Net.dropped net)

(* A lossy link can also deliver late duplicates. Re-delivering end-protocol
   and wake messages for an already-finished transaction must change
   nothing: no new outcomes, no document mutation, no resurrected locks. *)
let test_duplicate_delivery_idempotent () =
  let module Msg = Dtx_net.Msg in
  let sim, net, cluster = make_cluster () in
  let txn_id = ref (-1) in
  submit cluster ~coordinator:0
    [ ( "d1",
        Op.Insert
          { target = P.parse "/people";
            pos = Op.Into;
            fragment = "<person><id>dup</id></person>" } ) ]
    (fun txn -> txn_id := txn.Txn.id);
  Sim.run sim;
  checkb "committed first" true (!txn_id >= 0);
  let snapshot () =
    let s0 = Cluster.stats cluster in
    ( s0.Cluster.committed, s0.Cluster.aborted, s0.Cluster.failed,
      Array.fold_left
        (fun acc (site : Site.t) ->
          acc + Dtx_locks.Table.lock_count site.Site.table)
        0 (Cluster.sites cluster) )
  in
  let before = snapshot () in
  let txn = !txn_id in
  (* Late duplicates: Commit and Abort re-delivered to every participant,
     a stale Wake re-delivered to the coordinator. *)
  Array.iter
    (fun (site : Site.t) ->
      let dst = site.Site.id in
      Net.dispatch net ~src:0 ~dst (Msg.Commit { txn });
      Net.dispatch net ~src:0 ~dst (Msg.Abort { txn; quiet = false });
      Net.dispatch net ~src:0 ~dst (Msg.Abort { txn; quiet = true }))
    (Cluster.sites cluster);
  Net.dispatch net ~src:1 ~dst:0 (Msg.Wake { txn });
  Sim.run sim;
  checkb "outcome counters unchanged" true (before = snapshot ());
  check "insert still applied once" 1
    (List.length
       (Eval.select
          (replica cluster ~site:0 ~doc:"d1")
          (P.parse "//person[id = \"dup\"]")));
  checkb "replicas equal" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"))

(* --- determinism ----------------------------------------------------------- *)

let run_trace () =
  let sim, net, cluster = make_cluster () in
  let log = ref [] in
  submit cluster ~coordinator:0
    [ ("d1", q "/people/person"); ("d2", q "/products/product") ]
    (fun txn -> log := (txn.Txn.id, Txn.status_to_string txn.Txn.status, txn.Txn.finished_at) :: !log);
  submit cluster ~coordinator:1
    [ ( "d2",
        Op.Insert
          { target = P.parse "/products"; pos = Op.Into; fragment = "<product><id>99</id></product>" } ) ]
    (fun txn -> log := (txn.Txn.id, Txn.status_to_string txn.Txn.status, txn.Txn.finished_at) :: !log);
  Sim.run sim;
  (!log, Net.messages net)

let test_deterministic () =
  let a = run_trace () and b = run_trace () in
  checkb "identical traces" true (a = b)

let test_status_query () =
  let sim, _, cluster = make_cluster () in
  let t =
    Cluster.submit cluster ~client:0 ~coordinator:0
      ~ops:[ ("d1", q "/people/person") ]
      ~on_finish:(fun _ -> ())
  in
  checkb "active while queued" true
    (status_name (Cluster.txn_status cluster t.Txn.id) = "active");
  Sim.run sim;
  checkb "gone after finish" true (Cluster.txn_status cluster t.Txn.id = None)

(* --- commute: the optimistic protocol ------------------------------------ *)

(* Two read-only transactions provably commute, so the optimistic fast path
   ships them lock-free: zero lock requests, zero blocking, both commit. *)
let test_commute_readers_lock_free () =
  let sim, _, cluster = make_cluster ~protocol:Protocol.commute () in
  let done_ = ref 0 in
  submit cluster ~coordinator:1
    [ ("d2", q "/products/product/price") ]
    (fun txn ->
      checkb "reader 1 committed" true (txn.Txn.status = Txn.Committed);
      incr done_);
  submit cluster ~coordinator:1
    [ ("d2", q "/products/product/description") ]
    (fun txn ->
      checkb "reader 2 committed" true (txn.Txn.status = Txn.Committed);
      incr done_);
  Sim.run sim;
  check "both finished" 2 !done_;
  check "no locks acquired" 0 (Cluster.total_lock_requests cluster);
  check "no blocking" 0 (Cluster.total_blocked_ops cluster)

(* The directed invalidated-assumption case: an optimistic reader is still
   running when a conflicting writer is admitted. The writer falls back to
   full XDGL locks (its operations are not provably commuting), and the
   reader — which executed lock-free on a now-false assumption — must abort
   through the validation path, never commit. *)
let test_commute_invalidation_aborts_optimist () =
  let sim, _, cluster = make_cluster ~protocol:Protocol.commute () in
  let statuses = ref [] in
  submit cluster ~coordinator:1
    [ ("d2", q "/products/product");
      ("d2", q "/products/product/price") ]
    (fun txn -> statuses := ("reader", txn.Txn.status) :: !statuses);
  submit cluster ~coordinator:1
    [ ( "d2",
        Op.Insert
          { target = P.parse "/products";
            pos = Op.Into;
            fragment = "<product><id>13</id><price>9.99</price></product>" }
      ) ]
    (fun txn -> statuses := ("writer", txn.Txn.status) :: !statuses);
  Sim.run sim;
  check "both finished" 2 (List.length !statuses);
  checkb "writer committed" true
    (List.assoc "writer" !statuses = Txn.Committed);
  checkb "reader aborted" true (List.assoc "reader" !statuses = Txn.Aborted);
  check "one validation abort" 1 (Cluster.stats cluster).validation_aborts;
  checkb "writer fell back to real locks" true
    (Cluster.total_lock_requests cluster > 0)

(* Structural drift: a fully-executed optimistic transaction is exempt from
   pairwise invalidation, but a later admission that grows the DataGuide
   past its admission snapshot must still fail validation — the stale
   footprints never saw the new schema paths. Driven through the Optimist
   API directly to pin the exact mechanism. *)
let test_commute_structural_drift_fails_validation () =
  let d2 = Xml_parser.parse ~name:"d2" d2_text in
  let o = Dtx.Optimist.create ~protocol:Protocol.commute ~docs:[ d2 ] in
  let flags =
    Dtx.Optimist.admit o ~txn:1 ~ops:[| ("d2", q "/products/product") |]
  in
  checkb "reader admitted optimistically" true (Array.for_all Fun.id flags);
  Dtx.Optimist.note_all_executed o ~txn:1;
  let ins =
    Op.Insert
      { target = P.parse "/products/product";
        pos = Op.Into;
        fragment = "<warranty>2y</warranty>" }
  in
  ignore (Dtx.Optimist.admit o ~txn:2 ~ops:[| ("d2", ins) |]);
  (match Dtx.Optimist.validate o ~txn:1 with
   | Error reason ->
     checkb "names the structural mutation" true
       (let nh = String.length reason in
        let needle = "structural" in
        let nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub reason i nn = needle || go (i + 1))
        in
        go 0)
   | Ok () -> Alcotest.fail "stale optimistic reader passed validation");
  (match Dtx.Optimist.validate o ~txn:2 with
   | Ok () -> ()
   | Error r -> Alcotest.failf "writer's own growth invalidated it: %s" r)

let () =
  Alcotest.run "cluster"
    [ ( "lifecycle",
        [ Alcotest.test_case "read-only commit" `Quick test_read_only_commit;
          Alcotest.test_case "update replicates" `Quick test_update_replicated_everywhere;
          Alcotest.test_case "failed op aborts+undoes" `Quick
            test_failed_op_aborts_and_undoes;
          Alcotest.test_case "empty txn" `Quick test_empty_txn;
          Alcotest.test_case "unknown doc" `Quick test_unknown_doc_aborts;
          Alcotest.test_case "bad coordinator" `Quick test_bad_coordinator_rejected;
          Alcotest.test_case "status query" `Quick test_status_query ] );
      ( "concurrency",
        [ Alcotest.test_case "conflicts serialize" `Quick test_conflicting_txns_serialize;
          Alcotest.test_case "paper scenario deadlock (2.4)" `Quick
            test_paper_scenario_deadlock ] );
      ( "failures",
        [ Alcotest.test_case "site failure" `Quick test_site_failure_aborts;
          Alcotest.test_case "heal" `Quick test_site_failure_heals;
          Alcotest.test_case "crash + recovery" `Quick test_crash_recovery_cycle;
          Alcotest.test_case "filesystem storage end-to-end" `Quick
            test_cluster_on_filesystem_storage ] );
      ( "deadlock policies",
        [ Alcotest.test_case "wait-die" `Quick test_wait_die;
          Alcotest.test_case "wound-wait" `Quick test_wound_wait;
          Alcotest.test_case "all policies converge" `Quick
            test_prevention_policies_converge ] );
      ( "lossy links",
        [ Alcotest.test_case "all txns terminate under loss" `Quick
            test_lossy_network_all_txns_terminate;
          Alcotest.test_case "no loss by default" `Quick
            test_reliable_network_drops_nothing;
          Alcotest.test_case "duplicate delivery idempotent" `Quick
            test_duplicate_delivery_idempotent ] );
      ( "two-phase commit",
        [ Alcotest.test_case "wal unit" `Quick test_wal_unit;
          Alcotest.test_case "2PC commits + logs" `Quick test_two_phase_commit_works;
          Alcotest.test_case "2PC costs a round" `Quick test_two_phase_costs_a_round;
          Alcotest.test_case "crash recovery, presumed abort" `Quick
            test_two_phase_crash_recovery ] );
      ( "history",
        [ Alcotest.test_case "serializable" `Quick test_history_serializable;
          Alcotest.test_case "requires enabling" `Quick test_history_requires_enabling ] );
      ( "commute",
        [ Alcotest.test_case "commuting readers lock-free" `Quick
            test_commute_readers_lock_free;
          Alcotest.test_case "invalidated optimist aborts" `Quick
            test_commute_invalidation_aborts_optimist;
          Alcotest.test_case "structural drift fails validation" `Quick
            test_commute_structural_drift_fails_validation ] );
      ("determinism", [ Alcotest.test_case "same trace" `Quick test_deterministic ]) ]
