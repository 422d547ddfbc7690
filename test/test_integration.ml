(* End-to-end integration tests: the paper's §2.4 scenario played out in
   full (three transactions, two documents, two sites), replica convergence
   under a concurrent XMark workload, and a serializability check against
   serial executions. *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module P = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Doc = Dtx_xml.Doc
module Printer = Dtx_xml.Printer
module Xml_parser = Dtx_xml.Parser
module Generator = Dtx_xmark.Generator
module Queries = Dtx_xmark.Queries
module Fragment = Dtx_frag.Fragment
module Rng = Dtx_util.Rng

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let replica cluster ~site ~doc =
  let s = (Cluster.sites cluster).(site) in
  match Protocol.doc s.Site.protocol doc with
  | Some d -> d
  | None -> Alcotest.failf "site %d has no %s" site doc

(* ------------------------------------------------------------------ *)
(* The full §2.4 scenario.                                             *)
(* ------------------------------------------------------------------ *)

(* Documents exactly as described: d1 = people with person[id, name]
   children; d2 = products with product[id, description, price] children.
   Site s1 holds d1; site s2 holds d1 AND d2 (the paper's Fig. 4). *)
let scenario_cluster () =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d1 =
    Xml_parser.parse ~name:"d1"
      "<people><person><id>4</id><name>Ana</name></person></people>"
  in
  let d2 =
    Xml_parser.parse ~name:"d2"
      "<products><product><id>14</id><description>Pen</description><price>1.20</price></product></products>"
  in
  let placements =
    [ { Allocation.doc = d1; sites = [ 0; 1 ] };
      { Allocation.doc = d2; sites = [ 1 ] } ]
  in
  let config =
    { (Cluster.default_config ()) with deadlock_period_ms = 5.0 }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
  Cluster.shutdown_when_idle cluster;
  (sim, cluster)

let test_scenario_2_4 () =
  let sim, cluster = scenario_cluster () in
  let outcome = Hashtbl.create 4 in
  let finish name txn = Hashtbl.replace outcome name txn.Txn.status in
  (* t1 (client c1 at s1): query client 4, insert product Mouse. *)
  ignore
    (Cluster.submit cluster ~client:1 ~coordinator:0
       ~ops:
         [ ("d1", Op.Query (P.parse "/people/person[id = \"4\"]"));
           ( "d2",
             Op.Insert
               { target = P.parse "/products";
                 pos = Op.Into;
                 fragment =
                   "<product><id>13</id><description>Mouse</description><price>10.30</price></product>" } ) ]
       ~on_finish:(finish "t1"));
  (* t2 (client c2 at s2): query all products, insert person Patricia. *)
  ignore
    (Cluster.submit cluster ~client:2 ~coordinator:1
       ~ops:
         [ ("d2", Op.Query (P.parse "/products/product"));
           ( "d1",
             Op.Insert
               { target = P.parse "/people";
                 pos = Op.Into;
                 fragment = "<person><id>22</id><name>Patricia</name></person>" } ) ]
       ~on_finish:(finish "t2"));
  Sim.run sim;
  (* "By the rules of the protocol, the most recent transaction must be
     aborted; so transaction t2 is aborted … t1 has no further operations;
     it starts the commitment process." *)
  checkb "t1 committed" true (Hashtbl.find_opt outcome "t1" = Some Txn.Committed);
  checkb "t2 aborted" true (Hashtbl.find_opt outcome "t2" = Some Txn.Aborted);
  checkb "deadlock recorded" true
    ((Cluster.stats cluster).Cluster.deadlock_aborts = 1);
  (* "the client discards transaction t2 and decides to execute t3": query
     product 14, insert product Keyboard. *)
  let t3 = ref None in
  ignore
    (Cluster.submit cluster ~client:2 ~coordinator:1
       ~ops:
         [ ("d2", Op.Query (P.parse "/products/product[id = \"14\"]"));
           ( "d2",
             Op.Insert
               { target = P.parse "/products";
                 pos = Op.Into;
                 fragment =
                   "<product><id>32</id><description>Keyboard</description><price>9.90</price></product>" } ) ]
       ~on_finish:(fun txn -> t3 := Some txn.Txn.status));
  Sim.run sim;
  checkb "t3 committed" true (!t3 = Some Txn.Committed);
  (* Final state: Mouse and Keyboard present, Patricia absent, replicas of
     d1 identical on both sites. *)
  let d2r = replica cluster ~site:1 ~doc:"d2" in
  check "three products" 3 (List.length (Eval.select d2r (P.parse "/products/product")));
  check "Mouse" 1 (List.length (Eval.select d2r (P.parse "//product[id = \"13\"]")));
  check "Keyboard" 1 (List.length (Eval.select d2r (P.parse "//product[id = \"32\"]")));
  check "no Patricia" 0
    (List.length
       (Eval.select (replica cluster ~site:0 ~doc:"d1") (P.parse "//person[id = \"22\"]")));
  checkb "d1 replicas converged" true
    (Doc.equal_structure
       (replica cluster ~site:0 ~doc:"d1")
       (replica cluster ~site:1 ~doc:"d1"))

(* ------------------------------------------------------------------ *)
(* Replica convergence + invariant checks under a concurrent workload. *)
(* ------------------------------------------------------------------ *)

let run_random_cluster ~protocol ~seed ~n_txns =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let base = Generator.generate ~name:"x" (Generator.params_of_nodes 800) in
  let frags = Fragment.fragment base ~parts:3 in
  let placements =
    Allocation.allocate ~n_sites:3 (Allocation.Partial { copies = 2 }) frags
  in
  let config =
    { (Cluster.default_config ~protocol ()) with deadlock_period_ms = 10.0 }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:3 config ~placements in
  ignore (Cluster.enable_history cluster);
  Cluster.shutdown_when_idle cluster;
  let rng = Rng.create seed in
  let counter = ref 0 in
  let fresh () = incr counter; !counter in
  let frag_arr = Array.of_list frags in
  for i = 0 to n_txns - 1 do
    let ops =
      List.init 3 (fun _ ->
          let doc = Rng.pick rng frag_arr in
          let op =
            let pools = Queries.pools doc in
            if Rng.pct rng 40 then Queries.gen_update rng ~fresh pools
            else Queries.gen_query rng pools
          in
          (doc.Doc.name, op))
    in
    ignore
      (Cluster.submit cluster ~client:i ~coordinator:(i mod 3) ~ops
         ~on_finish:(fun _ -> ()))
  done;
  Sim.run sim;
  (cluster, List.map (fun (d : Doc.t) -> d.Doc.name) frags)

let test_replicas_converge () =
  List.iter
    (fun protocol ->
      let cluster, doc_names = run_random_cluster ~protocol ~seed:3 ~n_txns:30 in
      let catalog = Cluster.catalog cluster in
      List.iter
        (fun name ->
          match Allocation.sites_of catalog name with
          | first :: rest ->
            let reference = replica cluster ~site:first ~doc:name in
            checkb (name ^ " reference valid") true (Doc.validate reference = Ok ());
            List.iter
              (fun site ->
                checkb
                  (Printf.sprintf "%s: site %d == site %d (%s)" name site first
                     (Protocol.kind_to_string protocol))
                  true
                  (Doc.equal_structure reference (replica cluster ~site ~doc:name)))
              rest
          | [] -> Alcotest.fail "no sites")
        doc_names;
      (* The committed transactions' conflict graph must be acyclic. *)
      (match Cluster.check_serializable cluster with
       | Ok () -> ()
       | Error e ->
         Alcotest.failf "%s: %s" (Protocol.kind_to_string protocol) e);
      (* Strict 2PL: when everything drained, no lock survives anywhere. *)
      Array.iter
        (fun (s : Site.t) ->
          check "no residual locks" 0 (Dtx_locks.Table.lock_count s.Site.table);
          check "wfg empty" 0 (Dtx_locks.Wfg.size s.Site.wfg))
        (Cluster.sites cluster);
      check "all transactions done" 0 (Cluster.active_txns cluster))
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl ]

(* ------------------------------------------------------------------ *)
(* Serializability: the concurrent outcome must equal SOME serial order *)
(* of the committed transactions.                                       *)
(* ------------------------------------------------------------------ *)

let test_serializable_small () =
  (* Three single-doc update transactions racing on one document replicated
     at two sites. Afterwards the replica state must equal applying the
     committed transactions in SOME order serially. *)
  let doc_text = "<r><box><n>0</n></box><bin/></r>" in
  let mk_cluster () =
    let sim = Sim.create () in
    let net = Net.of_config ~sim Net.Config.lan in
    let d = Xml_parser.parse ~name:"d" doc_text in
    let placements = [ { Allocation.doc = d; sites = [ 0; 1 ] } ] in
    let config = { (Cluster.default_config ()) with deadlock_period_ms = 5.0 } in
    let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
    Cluster.shutdown_when_idle cluster;
    (sim, cluster)
  in
  let txn_ops =
    [ ("a", [ ("d", Op.Insert { target = P.parse "/r/box"; pos = Op.Into; fragment = "<a/>" }) ]);
      ("b", [ ("d", Op.Change { target = P.parse "/r/box/n"; new_text = "B" }) ]);
      ("c", [ ("d", Op.Insert { target = P.parse "/r/bin"; pos = Op.Into; fragment = "<c/>" }) ]) ]
  in
  let sim, cluster = mk_cluster () in
  let committed = ref [] in
  List.iteri
    (fun i (name, ops) ->
      ignore
        (Cluster.submit cluster ~client:i ~coordinator:(i mod 2) ~ops
           ~on_finish:(fun txn ->
             if txn.Txn.status = Txn.Committed then committed := name :: !committed)))
    txn_ops;
  Sim.run sim;
  let final = Printer.to_string ~indent:false ~decl:false (replica cluster ~site:0 ~doc:"d") in
  (* Enumerate serial executions of the committed subset. *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let serial_state order =
    let d = Xml_parser.parse ~name:"d" doc_text in
    List.iter
      (fun name ->
        let ops = List.assoc name txn_ops in
        List.iter
          (fun (_, op) ->
            match Exec.apply d op with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "serial apply: %s" (Exec.error_to_string e))
          ops)
      order;
    Printer.to_string ~indent:false ~decl:false d
  in
  let serial_states = List.map serial_state (permutations !committed) in
  checkb "equivalent to a serial execution" true (List.mem final serial_states);
  checkb "both replicas agree" true
    (Doc.equal_structure (replica cluster ~site:0 ~doc:"d")
       (replica cluster ~site:1 ~doc:"d"))

(* Property-style: several seeds, committed read-write transactions on a
   single counter-like document; check the final state is one of the n!
   serial outcomes (n kept tiny). *)
let test_serializable_many_seeds () =
  List.iter
    (fun seed ->
      let sim = Sim.create () in
      let net = Net.of_config ~sim Net.Config.lan in
      let d = Xml_parser.parse ~name:"d" "<r><slot><v>init</v></slot></r>" in
      let placements = [ { Allocation.doc = d; sites = [ 0; 1; 2 ] } ] in
      let config = { (Cluster.default_config ()) with deadlock_period_ms = 3.0 } in
      let cluster = Cluster.create ~sim ~net ~n_sites:3 config ~placements in
      Cluster.shutdown_when_idle cluster;
      let committed = ref [] in
      for i = 0 to 2 do
        let tag = Printf.sprintf "s%d_%d" seed i in
        ignore
          (Cluster.submit cluster ~client:i ~coordinator:i
             ~ops:
               [ ("d", Op.Query (P.parse "/r/slot/v"));
                 ("d", Op.Change { target = P.parse "/r/slot/v"; new_text = tag }) ]
             ~on_finish:(fun txn ->
               if txn.Txn.status = Txn.Committed then committed := tag :: !committed))
      done;
      Sim.run sim;
      let final =
        Dtx_xml.Node.text_content
          (List.hd (Eval.select (replica cluster ~site:0 ~doc:"d") (P.parse "/r/slot/v")))
      in
      (* The last committed writer must be the final value — with Strict 2PL
         any committed change survives until overwritten by a later one. *)
      checkb
        (Printf.sprintf "seed %d: final %s is a committed write" seed final)
        true
        (List.mem final !committed || (!committed = [] && final = "init"));
      checkb "replicas agree" true
        (Doc.equal_structure (replica cluster ~site:0 ~doc:"d")
           (replica cluster ~site:2 ~doc:"d")))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Random cluster configurations: every combination of protocol,       *)
(* deadlock policy, commit protocol, site count and workload must       *)
(* satisfy the global invariants.                                       *)
(* ------------------------------------------------------------------ *)

let prop_random_configs_hold_invariants =
  let protocols =
    [| Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom;
       Protocol.xdgl_value |]
  in
  let policies = [| Dtx.Site.Detection; Dtx.Site.Wait_die; Dtx.Site.Wound_wait |] in
  let commits = [| Cluster.One_phase; Cluster.Two_phase |] in
  QCheck.Test.make ~name:"random cluster configs satisfy global invariants"
    ~count:25
    QCheck.(quad (int_bound 100) (int_range 1 4) small_nat small_nat)
    (fun (seed, n_sites, proto_i, policy_i) ->
      let protocol = protocols.(proto_i mod Array.length protocols) in
      let policy = policies.(policy_i mod Array.length policies) in
      let commit = commits.(seed mod 2) in
      let sim = Sim.create () in
      let net = Net.of_config ~sim Net.Config.lan in
      let base = Generator.generate ~name:"x" (Generator.params_of_nodes 500) in
      let frags = Fragment.fragment base ~parts:n_sites in
      let placements =
        Allocation.allocate ~n_sites (Allocation.Partial { copies = 1 }) frags
      in
      let config =
        { (Cluster.default_config ~protocol ()) with
          deadlock_period_ms = 8.0;
          deadlock_policy = policy;
          commit }
      in
      let cluster = Cluster.create ~sim ~net ~n_sites config ~placements in
      ignore (Cluster.enable_history cluster);
      Cluster.shutdown_when_idle cluster;
      let rng = Rng.create (seed + 31) in
      let counter = ref 0 in
      let fresh () = incr counter; !counter in
      let frag_arr = Array.of_list frags in
      let n_txns = 10 in
      let finished = ref 0 in
      for i = 0 to n_txns - 1 do
        let ops =
          List.init 2 (fun _ ->
              let doc = Rng.pick rng frag_arr in
              let op =
                let pools = Queries.pools doc in
                if Rng.pct rng 50 then Queries.gen_update rng ~fresh pools
                else Queries.gen_query rng pools
              in
              (doc.Doc.name, op))
        in
        ignore
          (Cluster.submit cluster ~client:i ~coordinator:(i mod n_sites) ~ops
             ~on_finish:(fun _ -> incr finished))
      done;
      Sim.run sim;
      let s = Cluster.stats cluster in
      (* Invariants: every transaction terminates, accounting balances, no
         lock or wait-edge survives, histories are serializable, replicas
         agree. *)
      !finished = n_txns
      && s.Cluster.committed + s.Cluster.aborted + s.Cluster.failed = n_txns
      && Cluster.active_txns cluster = 0
      && Array.for_all
           (fun (site : Site.t) ->
             Dtx_locks.Table.lock_count site.Site.table = 0
             && Dtx_locks.Wfg.size site.Site.wfg = 0)
           (Cluster.sites cluster)
      && Cluster.check_serializable cluster = Ok ()
      && List.for_all
           (fun (d : Doc.t) ->
             match Allocation.sites_of (Cluster.catalog cluster) d.Doc.name with
             | first :: rest ->
               let reference = replica cluster ~site:first ~doc:d.Doc.name in
               Doc.validate reference = Ok ()
               && List.for_all
                    (fun site ->
                      Doc.equal_structure reference
                        (replica cluster ~site ~doc:d.Doc.name))
                    rest
             | [] -> false)
           frags)

let () =
  Alcotest.run "integration"
    [ ( "paper scenario",
        [ Alcotest.test_case "section 2.4 end-to-end" `Quick test_scenario_2_4 ] );
      ( "convergence",
        [ Alcotest.test_case "replicas converge (all protocols)" `Slow
            test_replicas_converge ] );
      ( "random configs",
        [ QCheck_alcotest.to_alcotest prop_random_configs_hold_invariants ] );
      ( "serializability",
        [ Alcotest.test_case "small serial equivalence" `Quick test_serializable_small;
          Alcotest.test_case "many seeds last-writer" `Quick
            test_serializable_many_seeds ] ) ]
