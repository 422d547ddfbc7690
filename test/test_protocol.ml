(* Tests for the protocol layer: XDGL lock-request rules per operation kind,
   Node2PL navigation locking, Doc2PL, and the pluggable Protocol facade. *)

module Protocol = Dtx_protocol.Protocol
module Xdgl_rules = Dtx_protocol.Xdgl_rules
module Node2pl_rules = Dtx_protocol.Node2pl_rules
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Dg = Dtx_dataguide.Dataguide
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module P = Dtx_xpath.Parser
module Doc = Dtx_xml.Doc
module Xml_parser = Dtx_xml.Parser
module Generator = Dtx_xmark.Generator

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let store () =
  Xml_parser.parse ~name:"d2"
    "<products>\n\
     <product><id>4</id><price>1.20</price></product>\n\
     <product><id>14</id><price>3.50</price></product>\n\
     </products>"

let dg_of doc = Dg.build doc

(* XDGL's lock set: the rule table over the DataGuide view. *)
let xdgl_requests dg op = Xdgl_rules.requests (Xdgl_rules.guide_view dg) op

let mode_on dg requests labels =
  (* Modes requested on the dataguide node at this label path. *)
  match Dg.find_path dg labels with
  | None -> []
  | Some n ->
    List.filter_map
      (fun ((r : Table.resource), m) -> if Table.resource_node r = n.Dg.dg_id then Some m else None)
      requests
    |> List.sort_uniq compare

(* --- XDGL rules ---------------------------------------------------------- *)

let test_xdgl_query_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let reqs = xdgl_requests dg (Op.Query (P.parse "/products/product/price")) in
  Alcotest.(check (list string))
    "ST on target" [ "ST" ]
    (List.map Mode.to_string (mode_on dg reqs [ "products"; "product"; "price" ]));
  checkb "IS on ancestor product" true
    (List.mem Mode.IS (mode_on dg reqs [ "products"; "product" ]));
  checkb "IS on root" true (List.mem Mode.IS (mode_on dg reqs [ "products" ]))

let test_xdgl_query_predicate_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let reqs =
    xdgl_requests dg (Op.Query (P.parse "/products/product[id = \"4\"]/price"))
  in
  checkb "ST on predicate node id" true
    (List.mem Mode.ST (mode_on dg reqs [ "products"; "product"; "id" ]))

let test_xdgl_insert_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let op =
    Op.Insert
      { target = P.parse "/products/product[1]";
        pos = Op.Into;
        fragment = "<tag>x</tag>" }
  in
  let reqs = xdgl_requests dg op in
  (* X on the new node's path (created on demand), IX above, SI on the
     connecting node, IS above it. *)
  checkb "X on new path" true
    (List.mem Mode.X (mode_on dg reqs [ "products"; "product"; "tag" ]));
  checkb "SI on connect" true
    (List.mem Mode.SI (mode_on dg reqs [ "products"; "product" ]));
  checkb "IX on ancestor" true
    (List.mem Mode.IX (mode_on dg reqs [ "products"; "product" ]));
  checkb "intentions on root" true
    (let ms = mode_on dg reqs [ "products" ] in
     List.mem Mode.IX ms && List.mem Mode.IS ms)

let test_xdgl_insert_after_connects_to_parent () =
  let doc = store () in
  let dg = dg_of doc in
  let op =
    Op.Insert
      { target = P.parse "/products/product[1]"; pos = Op.After; fragment = "<product/>" }
  in
  let reqs = xdgl_requests dg op in
  checkb "SA on parent (connect)" true
    (List.mem Mode.SA (mode_on dg reqs [ "products" ]))

let test_xdgl_remove_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let reqs = xdgl_requests dg (Op.Remove (P.parse "//product[id = \"4\"]")) in
  checkb "XT on target" true
    (List.mem Mode.XT (mode_on dg reqs [ "products"; "product" ]));
  checkb "IX above" true (List.mem Mode.IX (mode_on dg reqs [ "products" ]));
  checkb "ST on predicate path" true
    (List.mem Mode.ST (mode_on dg reqs [ "products"; "product"; "id" ]))

let test_xdgl_change_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let reqs =
    xdgl_requests dg
      (Op.Change { target = P.parse "//product/price"; new_text = "0" })
  in
  checkb "X on target" true
    (List.mem Mode.X (mode_on dg reqs [ "products"; "product"; "price" ]))

let test_xdgl_rename_locks () =
  let doc = store () in
  let dg = dg_of doc in
  let reqs =
    xdgl_requests dg
      (Op.Rename { target = P.parse "//product/price"; new_label = "cost" })
  in
  checkb "XT on old path" true
    (List.mem Mode.XT (mode_on dg reqs [ "products"; "product"; "price" ]));
  checkb "X on new path" true
    (List.mem Mode.X (mode_on dg reqs [ "products"; "product"; "cost" ]))

let test_xdgl_transpose_locks () =
  let doc = Xml_parser.parse ~name:"d" "<r><a><x/></a><b/></r>" in
  let dg = dg_of doc in
  let reqs =
    xdgl_requests dg
      (Op.Transpose { source = P.parse "/r/a/x"; dest = P.parse "/r/b" })
  in
  checkb "XT on source" true (List.mem Mode.XT (mode_on dg reqs [ "r"; "a"; "x" ]));
  checkb "SI on dest" true (List.mem Mode.SI (mode_on dg reqs [ "r"; "b" ]));
  checkb "X on new location" true (List.mem Mode.X (mode_on dg reqs [ "r"; "b"; "x" ]))

let test_xdgl_scenario_conflict () =
  (* The paper's §2.4 incompatibility: a products query (ST on product) vs a
     product insertion (IX on product's DataGuide node). *)
  let doc = store () in
  let dg = dg_of doc in
  let table = Table.create () in
  let q = xdgl_requests dg (Op.Query (P.parse "/products/product")) in
  (match Table.acquire_all table ~txn:2 q with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "reader should lock");
  let ins =
    xdgl_requests dg
      (Op.Insert
         { target = P.parse "/products";
           pos = Op.Into;
           fragment = "<product><id>13</id></product>" })
  in
  match Table.acquire_all table ~txn:1 ins with
  | Error blockers -> Alcotest.(check (list int)) "blocked by reader" [ 2 ] blockers
  | Ok () -> Alcotest.fail "insert must conflict with the subtree read lock"

let test_frag_root_label () =
  Alcotest.(check (option string)) "simple" (Some "item")
    (Xdgl_rules.frag_root_label "<item id=\"3\"/>");
  Alcotest.(check (option string)) "leading space" (Some "a")
    (Xdgl_rules.frag_root_label "  <a><b/></a>");
  Alcotest.(check (option string)) "garbage" None (Xdgl_rules.frag_root_label "plain")

(* --- Node2PL rules -------------------------------------------------------- *)

let test_node2pl_query_retains_target_subtrees () =
  let doc = store () in
  let retained, processed = Node2pl_rules.requests doc (Op.Query (P.parse "//price")) in
  (* Retained: 2 price nodes ST + intention ancestors; processed counts
     navigation over the whole document (descendant scan). *)
  checkb "processed > retained" true (processed > List.length retained);
  checkb "some ST retained" true
    (List.exists (fun (_, m) -> m = Mode.ST) retained);
  checkb "processed >= doc scan" true (processed >= Doc.size doc)

let test_node2pl_update_exclusive_subtree () =
  let doc = store () in
  let retained, _ =
    Node2pl_rules.requests doc (Op.Remove (P.parse "//product[id = \"4\"]"))
  in
  (* X on all 5 nodes of the product subtree (product, id, its texts are
     nodes: product + id + price = 3 elements... exactly: product,id,price),
     IX on the root ancestor. *)
  let xs = List.filter (fun (_, m) -> m = Mode.X) retained in
  check "X on each subtree node" 3 (List.length xs);
  checkb "IX on ancestor" true (List.exists (fun (_, m) -> m = Mode.IX) retained)

let test_node2pl_conflicts_are_per_node () =
  let doc = store () in
  let table = Table.create () in
  let q1, _ = Node2pl_rules.requests doc (Op.Query (P.parse "//product[id = \"4\"]")) in
  (match Table.acquire_all table ~txn:1 q1 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "reader locks");
  (* An update to the OTHER product must not conflict (finer than XDGL). *)
  let u, _ =
    Node2pl_rules.requests doc
      (Op.Change { target = P.parse "//product[id = \"14\"]/price"; new_text = "9" })
  in
  match Table.acquire_all table ~txn:2 u with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "disjoint subtrees must not conflict under Node2PL"

(* --- taDOM rules ------------------------------------------------------------ *)

(* taDOM's [(retained, processed)] through the registry: the rule table
   over the document-instance view. *)
let tadom_requests doc op =
  let p = Protocol.create Protocol.tadom in
  Protocol.add_doc p doc;
  match Protocol.lock_requests p ~doc:doc.Doc.name op with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_tadom_path_proportional () =
  let doc = store () in
  let retained, processed =
    tadom_requests doc (Op.Query (P.parse "//product[id = \"4\"]"))
  in
  check "processed = retained (no navigation charge)" (List.length retained)
    processed;
  (* One target at depth 1: ST on it + IS on the root — not the subtree. *)
  checkb "small lock set" true (List.length retained <= 8);
  checkb "has ST" true (List.exists (fun (_, m) -> m = Mode.ST) retained);
  checkb "has IS" true (List.exists (fun (_, m) -> m = Mode.IS) retained)

let test_tadom_finer_than_xdgl () =
  (* Two inserts under different products: XDGL conflicts (same label
     path), taDOM does not (different document nodes). *)
  let doc = store () in
  let table = Table.create () in
  let ins path =
    Op.Insert { target = P.parse path; pos = Op.Into; fragment = "<tag/>" }
  in
  let r1, _ = tadom_requests doc (ins "/products/product[id = \"4\"]") in
  let r2, _ = tadom_requests doc (ins "/products/product[id = \"14\"]") in
  (match Table.acquire_all table ~txn:1 r1 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "first insert locks");
  (match Table.acquire_all table ~txn:2 r2 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "taDOM: disjoint parents must not conflict");
  (* XDGL, by contrast, conflicts on the shared product label path. *)
  let dg = dg_of (store ()) in
  let table2 = Table.create () in
  let x1 = xdgl_requests dg (ins "/products/product[id = \"4\"]") in
  let x2 = xdgl_requests dg (ins "/products/product[id = \"14\"]") in
  (match Table.acquire_all table2 ~txn:1 x1 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "xdgl first insert locks");
  match Table.acquire_all table2 ~txn:2 x2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "xdgl: same label path must conflict"

let test_tadom_subtree_protection () =
  (* A remove's XT on the target + intention locks above must block a
     reader of a node INSIDE the removed subtree (implicit coverage). *)
  let doc = store () in
  let table = Table.create () in
  let rm, _ = tadom_requests doc (Op.Remove (P.parse "//product[id = \"4\"]")) in
  (match Table.acquire_all table ~txn:1 rm with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "remove locks");
  let rd, _ =
    tadom_requests doc (Op.Query (P.parse "//product[id = \"4\"]/price"))
  in
  match Table.acquire_all table ~txn:2 rd with
  | Error [ 1 ] -> ()
  | Error _ -> Alcotest.fail "wrong blocker"
  | Ok () ->
    Alcotest.fail "reading inside a subtree being removed must conflict"

(* The instance view has no landing: the rules that give XDGL an X on the
   label path new content lands on give taDOM none. *)
let node_modes reqs (n : Dtx_xml.Node.t) =
  List.filter_map
    (fun (r, m) -> if Table.resource_node r = n.Dtx_xml.Node.id then Some m else None)
    reqs
  |> List.sort_uniq compare

let select doc path = Dtx_xpath.Eval.select doc (P.parse path)

let one doc path =
  match select doc path with
  | [ n ] -> n
  | ns -> Alcotest.failf "%s selects %d nodes" path (List.length ns)

let no_x reqs = not (List.exists (fun (_, m) -> m = Mode.X) reqs)

let test_tadom_rename () =
  let doc = store () in
  let reqs, _ =
    tadom_requests doc
      (Op.Rename { target = P.parse "//product[id = \"4\"]"; new_label = "item" })
  in
  checkb "XT on the target" true
    (List.mem Mode.XT (node_modes reqs (one doc "//product[id = \"4\"]")));
  checkb "IX above" true (List.mem Mode.IX (node_modes reqs doc.Doc.root));
  checkb "no X anywhere" true (no_x reqs)

let test_tadom_transpose () =
  let doc = store () in
  let src = "/products/product[id = \"4\"]/price" in
  let dst = "/products/product[id = \"14\"]" in
  let reqs, _ =
    tadom_requests doc (Op.Transpose { source = P.parse src; dest = P.parse dst })
  in
  checkb "XT on the source" true (List.mem Mode.XT (node_modes reqs (one doc src)));
  checkb "SI on the destination" true
    (List.mem Mode.SI (node_modes reqs (one doc dst)));
  checkb "no X anywhere" true (no_x reqs)

let test_tadom_change () =
  let doc = store () in
  let target = "//product[id = \"4\"]/price" in
  let reqs, _ =
    tadom_requests doc (Op.Change { target = P.parse target; new_text = "9" })
  in
  let x_nodes =
    List.filter_map (fun (r, m) -> if m = Mode.X then Some (Table.resource_node r) else None) reqs
  in
  Alcotest.(check (list int)) "X on exactly the selected node"
    [ (one doc target).Dtx_xml.Node.id ] x_nodes;
  check "two prices in the document" 2 (List.length (select doc "//price"))

let test_tadom_in_cluster () =
  (* Full pluggability: the paper's future-work protocol running the whole
     distributed machinery. *)
  let module Sim = Dtx_sim.Sim in
  let module Net = Dtx_net.Net in
  let module Cluster = Dtx.Cluster in
  let module Txn = Dtx_txn.Txn in
  let module Allocation = Dtx_frag.Allocation in
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let d = store () in
  let cluster =
    Cluster.create ~sim ~net ~n_sites:2
      (Cluster.default_config ~protocol:Protocol.tadom ())
      ~placements:[ { Allocation.doc = d; sites = [ 0; 1 ] } ]
  in
  Cluster.shutdown_when_idle cluster;
  let statuses = ref [] in
  for i = 0 to 5 do
    Cluster.submit cluster ~client:i ~coordinator:(i mod 2)
      ~ops:
        [ ( "d2",
            Op.Insert
              { target = P.parse "/products";
                pos = Op.Into;
                fragment = Printf.sprintf "<product><id>t%d</id></product>" i } ) ]
      ~on_finish:(fun txn -> statuses := txn.Txn.status :: !statuses)
    |> ignore
  done;
  Sim.run sim;
  check "all finished" 6 (List.length !statuses);
  checkb "all committed" true (List.for_all (fun s -> s = Txn.Committed) !statuses)

(* --- XDGL value locks --------------------------------------------------------*)

module Xdgl_value_rules = Dtx_protocol.Xdgl_value_rules

let test_value_locks_disjoint_readers () =
  (* Predicate readers of different id values share nothing on the id node
     beyond IS, so they are compatible with a writer's value lock on a third
     value. *)
  let doc = store () in
  let dg = dg_of doc in
  let table = Table.create () in
  let q v = Op.Query (P.parse (Printf.sprintf "//product[id = \"%s\"]" v)) in
  let r4 = Xdgl_value_rules.requests dg doc (q "4") in
  let r14 = Xdgl_value_rules.requests dg doc (q "14") in
  (match Table.acquire_all table ~txn:1 r4 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "reader 4 locks");
  (match Table.acquire_all table ~txn:2 r14 with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "reader 14 locks");
  (* Both hold value-ST on different values of the same id node. *)
  checkb "value resources used" true
    (List.exists (fun ((r : Table.resource), _) -> Table.resource_value r = Some "4") r4)

let test_value_locks_same_value_conflict () =
  (* A change that rewrites a price to "9.99" conflicts with a predicate
     reader of price = "9.99" (phantom protection), even though the reader
     matched nothing yet. *)
  let doc = store () in
  let dg = dg_of doc in
  let table = Table.create () in
  let reader =
    Xdgl_value_rules.requests dg doc
      (Op.Query (P.parse "//product[price = \"9.99\"]"))
  in
  (match Table.acquire_all table ~txn:1 reader with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "reader locks");
  let writer =
    Xdgl_value_rules.requests dg doc
      (Op.Change { target = P.parse "//product[id = \"4\"]/price"; new_text = "9.99" })
  in
  match Table.acquire_all table ~txn:2 writer with
  | Error blockers -> Alcotest.(check (list int)) "phantom conflict" [ 1 ] blockers
  | Ok () -> Alcotest.fail "writing the watched value must conflict"

let test_value_locks_superset_of_base () =
  (* Structural safety: the value variant never locks less than XDGL on the
     plain (structural) resources. *)
  let doc = store () in
  let dg = dg_of doc in
  let ops =
    [ Op.Query (P.parse "//product[id = \"4\"]/price");
      Op.Change { target = P.parse "//product[id = \"4\"]/price"; new_text = "2" };
      Op.Remove (P.parse "//product[id = \"14\"]") ]
  in
  List.iter
    (fun op ->
      let value = Xdgl_value_rules.requests dg doc op in
      let plain_covered =
        List.for_all
          (fun ((r : Table.resource), m) ->
            (* every non-value exclusive lock of the base set is present *)
            Table.resource_value r <> None
            || List.exists
                 (fun ((r' : Table.resource), m') -> r' = r && m' = m)
                 value
            || not (Mode.is_exclusive m))
          (xdgl_requests dg
             (match op with
              | Op.Query p -> Op.Query (Dtx_xpath.Ast.without_predicates p)
              | other -> other))
      in
      checkb (Op.to_string op) true plain_covered)
    ops

let test_value_protocol_in_facade () =
  let p = Protocol.create Protocol.xdgl_value in
  Protocol.add_doc p (store ());
  (match Protocol.lock_requests p ~doc:"d2" (Op.Query (P.parse "//product[id = \"4\"]")) with
   | Ok (reqs, _) ->
     checkb "value resource present" true
       (List.exists (fun ((r : Table.resource), _) -> Table.resource_value r <> None) reqs)
   | Error e -> Alcotest.fail e);
  checkb "kind string" true
    (Protocol.kind_of_string "xdgl+vl" = Some Protocol.xdgl_value)

(* --- Protocol facade ------------------------------------------------------ *)

let test_facade_lifecycle () =
  List.iter
    (fun kind ->
      let p = Protocol.create kind in
      let doc = store () in
      Protocol.add_doc p doc;
      Alcotest.(check (list string)) "docs" [ "d2" ] (Protocol.docs p);
      checkb "doc found" true (Protocol.doc p "d2" <> None);
      match Protocol.lock_requests p ~doc:"d2" (Op.Query (P.parse "//price")) with
      | Ok (reqs, processed) ->
        checkb "some locks" true (reqs <> []);
        checkb "processed covers requests" true (processed >= List.length reqs)
      | Error e -> Alcotest.fail e)
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom ]

let test_facade_unknown_doc () =
  let p = Protocol.create Protocol.xdgl in
  match Protocol.lock_requests p ~doc:"ghost" (Op.Query (P.parse "//x")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown doc must error"

let test_doc2pl_whole_document () =
  let p = Protocol.create Protocol.doc2pl in
  Protocol.add_doc p (store ());
  (match Protocol.lock_requests p ~doc:"d2" (Op.Query (P.parse "//price")) with
   | Ok ([ (r, Mode.ST) ], 1) -> check "pseudo node" 0 (Table.resource_node r)
   | _ -> Alcotest.fail "expected single ST");
  match
    Protocol.lock_requests p ~doc:"d2"
      (Op.Change { target = P.parse "//price"; new_text = "0" })
  with
  | Ok ([ (_, Mode.X) ], 1) -> ()
  | _ -> Alcotest.fail "expected single X"

let test_derivation_cache () =
  let p = Protocol.create Protocol.xdgl in
  Protocol.add_doc p (store ());
  let q = Op.Query (P.parse "/products/product[id = \"4\"]/price") in
  let first =
    match Protocol.lock_requests p ~doc:"d2" q with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "first call misses" true (Protocol.cache_stats p = (0, 1));
  let second =
    match Protocol.lock_requests p ~doc:"d2" q with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  checkb "second call hits" true (Protocol.cache_stats p = (1, 1));
  checkb "cached result identical" true (first = second);
  (* A DataGuide mutation must invalidate: the version bump makes the memo
     stale and the rederivation covers the new label path. *)
  Protocol.note_applied p ~doc:"d2" [ Exec.Dg_add [ "products"; "warranty" ] ];
  (match Protocol.lock_requests p ~doc:"d2" q with
   | Ok r ->
     checkb "stale entry not served" true (Protocol.cache_stats p = (1, 2));
     checkb "rederivation matches fresh rules" true (first = r)
   | Error e -> Alcotest.fail e);
  (* Distinct op shapes cache independently. *)
  (match Protocol.lock_requests p ~doc:"d2" (Op.Query (P.parse "//price")) with
   | Ok _ -> checkb "new shape misses" true (Protocol.cache_stats p = (1, 3))
   | Error e -> Alcotest.fail e);
  (* Non-caching kinds bypass the memo but still count every derivation as
     a miss, so the stats report derivation volume instead of zeros. *)
  let n = Protocol.create Protocol.node2pl in
  Protocol.add_doc n (store ());
  (match Protocol.lock_requests n ~doc:"d2" q with
   | Ok _ -> checkb "node2pl uncached" true (Protocol.cache_stats n = (0, 1))
   | Error e -> Alcotest.fail e)

let test_derivation_cache_insert_ensures_paths () =
  (* Insert derivation extends the DataGuide with the fragment's landing
     path (count 0); the memo is taken at the post-extension version, so a
     repeat of the same insert both hits and still names the same nodes. *)
  let p = Protocol.create Protocol.xdgl in
  Protocol.add_doc p (store ());
  let ins =
    Op.Insert
      { target = P.parse "/products/product"; pos = Op.Into;
        fragment = "<warranty>2y</warranty>" }
  in
  let first =
    match Protocol.lock_requests p ~doc:"d2" ins with
    | Ok (r, _) -> r
    | Error e -> Alcotest.fail e
  in
  (match Protocol.lock_requests p ~doc:"d2" ins with
   | Ok (r, _) ->
     checkb "repeat insert hits" true (fst (Protocol.cache_stats p) = 1);
     checkb "same request set" true (first = r)
   | Error e -> Alcotest.fail e);
  let dg =
    match Protocol.dataguide p "d2" with Some dg -> dg | None -> assert false
  in
  checkb "landing path ensured" true
    (Dg.find_path dg [ "products"; "product"; "warranty" ] <> None)

let test_structure_sizes () =
  let doc = Generator.generate (Generator.params_of_nodes 800) in
  let sizes =
    List.map
      (fun kind ->
        let p = Protocol.create kind in
        Protocol.add_doc p doc;
        Protocol.structure_size p doc.Doc.name)
      [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom ]
  in
  match sizes with
  | [ xdgl; node2pl; doc2pl; tadom ] ->
    check "doc2pl" 1 doc2pl;
    check "node2pl = doc size" (Doc.size doc) node2pl;
    check "tadom = doc size" (Doc.size doc) tadom;
    checkb "dataguide much smaller" true (xdgl * 3 < node2pl)
  | _ -> Alcotest.fail "sizes"

let test_note_applied_maintains_dataguide () =
  let p = Protocol.create Protocol.xdgl in
  let doc = store () in
  Protocol.add_doc p doc;
  let replica =
    match Protocol.doc p "d2" with Some d -> d | None -> Alcotest.fail "no doc"
  in
  let op =
    Op.Insert
      { target = P.parse "/products";
        pos = Op.Into;
        fragment = "<product><id>9</id></product>" }
  in
  (match Exec.apply replica op with
   | Ok eff ->
     Protocol.note_applied p ~doc:"d2" eff.Exec.dg;
     (match Protocol.dataguide p "d2" with
      | Some dg -> checkb "dg exact" true (Dg.validate dg replica = Ok ())
      | None -> Alcotest.fail "no dataguide")
   | Error e -> Alcotest.fail (Exec.error_to_string e));
  checkb "node2pl has no dataguide" true
    (Protocol.dataguide (Protocol.create Protocol.node2pl) "d2" = None)

let test_kind_strings () =
  List.iter
    (fun k ->
      match Protocol.kind_of_string (Protocol.kind_to_string k) with
      | Some k' -> checkb "roundtrip" true (k = k')
      | None -> Alcotest.fail "kind_of_string")
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom ]

(* --- property: lock coverage --------------------------------------------- *)

(* Safety property tying rules to semantics: if two operations' XDGL lock
   sets are compatible (no conflict between two distinct transactions), the
   operations touch disjoint document regions, i.e. executing them in either
   order yields the same document. We check a weaker, decidable version:
   an update and a query that DO овerlap structurally must conflict. *)
let prop_xdgl_update_conflicts_with_overlapping_query =
  let cases =
    [ ("/products/product/price", "CHANGE //product/price TO \"0\"");
      ("/products/product", "REMOVE //product[id = \"4\"]");
      ("//product[id = \"4\"]", "INSERT INTO /products/product[1] <tag/>");
      ("/products/product/id", "RENAME //product/id TO key") ]
  in
  QCheck.Test.make ~name:"xdgl: overlapping query/update conflict" ~count:20
    QCheck.(oneofl cases)
    (fun (qpath, update_text) ->
      let doc = store () in
      let dg = dg_of doc in
      let table = Table.create () in
      let q = xdgl_requests dg (Op.Query (P.parse qpath)) in
      (match Table.acquire_all table ~txn:1 q with
       | Ok () -> ()
       | Error _ -> failwith "reader must acquire on empty table");
      let update =
        match Op.parse update_text with Ok op -> op | Error e -> failwith e
      in
      let u = xdgl_requests dg update in
      match Table.acquire_all table ~txn:2 u with
      | Error _ -> true
      | Ok () -> false)

(* Exclusive-coverage property: after executing a random update under the
   locks Xdgl_rules computed, every modified document node's label path must
   be covered by an exclusive-mode lock (X or XT) on that DataGuide node or
   a tree lock on an ancestor. This ties the lock rules to the execution
   semantics: nothing changes outside the locked region. *)
module Generator_q = Dtx_xmark.Queries
module Rng = Dtx_util.Rng

let covered_exclusively dg requests labels =
  (* Walk prefixes of the label path; the full path needs X/XT, a strict
     prefix covers only via a tree lock (XT). *)
  let full_len = List.length labels in
  let rec prefixes acc k =
    if k > full_len then List.rev acc
    else prefixes ((List.filteri (fun i _ -> i < k) labels, k) :: acc) (k + 1)
  in
  List.exists
    (fun (prefix, k) ->
      match Dg.find_path dg prefix with
      | None -> false
      | Some n ->
        List.exists
          (fun ((r : Table.resource), m) ->
            Table.resource_node r = n.Dg.dg_id
            && (m = Mode.XT || (m = Mode.X && k = full_len)))
          requests)
    (prefixes [] 1)

let prop_xdgl_locks_cover_modifications =
  QCheck.Test.make ~name:"xdgl locks cover every modified node" ~count:60
    QCheck.small_nat
    (fun seed ->
      let doc = Generator.generate ~name:"c" (Generator.params_of_nodes 400) in
      let dg = Dg.build doc in
      let rng = Rng.create (seed + 13) in
      let counter = ref 0 in
      let fresh () = incr counter; !counter in
      let op = Generator_q.gen_update rng ~fresh (Generator_q.pools doc) in
      let requests = xdgl_requests dg op in
      match Exec.apply doc op with
      | Error _ -> true (* nothing modified, nothing to cover *)
      | Ok eff ->
        let modified_paths =
          List.concat_map
            (fun entry ->
              match entry with
              | Exec.Undo_insert id | Exec.Undo_rename { node = id; _ }
              | Exec.Undo_change { node = id; _ }
              | Exec.Undo_transpose { node = id; _ } -> (
                match Dtx_xml.Doc.find doc id with
                | Some n -> [ Dtx_xml.Node.label_path n ]
                | None -> [])
              | Exec.Undo_remove { parent; subtree; _ } -> (
                match Dtx_xml.Doc.find doc parent with
                | Some p ->
                  [ Dtx_xml.Node.label_path p
                    @ [ subtree.Dtx_xml.Node.label ] ]
                | None -> []))
            eff.Exec.undo
        in
        List.for_all
          (fun labels ->
            (* The DataGuide node may have been created fresh by the insert
               (ensure_path in the rules); look it up in the rules' guide. *)
            covered_exclusively dg requests labels)
          modified_paths)

let () =
  Alcotest.run "protocol"
    [ ( "xdgl",
        [ Alcotest.test_case "query locks" `Quick test_xdgl_query_locks;
          Alcotest.test_case "predicate locks" `Quick test_xdgl_query_predicate_locks;
          Alcotest.test_case "insert locks" `Quick test_xdgl_insert_locks;
          Alcotest.test_case "insert-after connect" `Quick
            test_xdgl_insert_after_connects_to_parent;
          Alcotest.test_case "remove locks" `Quick test_xdgl_remove_locks;
          Alcotest.test_case "change locks" `Quick test_xdgl_change_locks;
          Alcotest.test_case "rename locks" `Quick test_xdgl_rename_locks;
          Alcotest.test_case "transpose locks" `Quick test_xdgl_transpose_locks;
          Alcotest.test_case "scenario conflict (Fig. 6)" `Quick test_xdgl_scenario_conflict;
          Alcotest.test_case "frag_root_label" `Quick test_frag_root_label;
          QCheck_alcotest.to_alcotest
            prop_xdgl_update_conflicts_with_overlapping_query;
          QCheck_alcotest.to_alcotest prop_xdgl_locks_cover_modifications ] );
      ( "tadom",
        [ Alcotest.test_case "path proportional" `Quick test_tadom_path_proportional;
          Alcotest.test_case "finer than xdgl" `Quick test_tadom_finer_than_xdgl;
          Alcotest.test_case "subtree protection" `Quick test_tadom_subtree_protection;
          Alcotest.test_case "rename takes no X" `Quick test_tadom_rename;
          Alcotest.test_case "transpose takes no X" `Quick test_tadom_transpose;
          Alcotest.test_case "change X on the selected node" `Quick test_tadom_change;
          Alcotest.test_case "runs in the cluster" `Quick test_tadom_in_cluster ] );
      ( "xdgl+vl",
        [ Alcotest.test_case "disjoint value readers" `Quick
            test_value_locks_disjoint_readers;
          Alcotest.test_case "same-value phantom conflict" `Quick
            test_value_locks_same_value_conflict;
          Alcotest.test_case "superset of base exclusives" `Quick
            test_value_locks_superset_of_base;
          Alcotest.test_case "facade" `Quick test_value_protocol_in_facade ] );
      ( "node2pl",
        [ Alcotest.test_case "navigation cost" `Quick
            test_node2pl_query_retains_target_subtrees;
          Alcotest.test_case "exclusive subtree" `Quick
            test_node2pl_update_exclusive_subtree;
          Alcotest.test_case "per-node conflicts" `Quick
            test_node2pl_conflicts_are_per_node ] );
      ( "facade",
        [ Alcotest.test_case "lifecycle" `Quick test_facade_lifecycle;
          Alcotest.test_case "unknown doc" `Quick test_facade_unknown_doc;
          Alcotest.test_case "doc2pl" `Quick test_doc2pl_whole_document;
          Alcotest.test_case "structure sizes" `Quick test_structure_sizes;
          Alcotest.test_case "derivation cache" `Quick test_derivation_cache;
          Alcotest.test_case "cache vs insert ensure_path" `Quick
            test_derivation_cache_insert_ensures_paths;
          Alcotest.test_case "note_applied" `Quick test_note_applied_maintains_dataguide;
          Alcotest.test_case "kind strings" `Quick test_kind_strings ] ) ]
