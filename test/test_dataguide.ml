(* Tests for the strong DataGuide: construction, incremental maintenance,
   structural matching — plus properties over random documents. *)

module Dg = Dtx_dataguide.Dataguide
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Xml_parser = Dtx_xml.Parser
module P = Dtx_xpath.Parser
module Generator = Dtx_xmark.Generator

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let sample () =
  Xml_parser.parse ~name:"d"
    "<people>\n\
     <person id=\"1\"><name>Ana</name></person>\n\
     <person id=\"2\"><name>Bia</name><city>Natal</city></person>\n\
     </people>"

let test_build_dedups_paths () =
  let dg = Dg.build (sample ()) in
  (* Distinct label paths: people, person, @id, name, city = 5. *)
  check "five dataguide nodes" 5 (Dg.size dg);
  match Dg.find_path dg [ "people"; "person" ] with
  | Some n -> check "two persons map here" 2 n.Dg.target_count
  | None -> Alcotest.fail "person path missing"

let test_validate_after_build () =
  let doc = sample () in
  let dg = Dg.build doc in
  checkb "valid" true (Dg.validate dg doc = Ok ())

let test_find_and_ensure () =
  let dg = Dg.build (sample ()) in
  checkb "missing path" true (Dg.find_path dg [ "people"; "ghost" ] = None);
  checkb "wrong root" true (Dg.find_path dg [ "nope" ] = None);
  let n = Dg.ensure_path dg [ "people"; "ghost" ] in
  check "created with zero count" 0 n.Dg.target_count;
  checkb "now found" true (Dg.find_path dg [ "people"; "ghost" ] <> None);
  Alcotest.check_raises "ensure with wrong root"
    (Invalid_argument "Dataguide.ensure_path: root label bad <> people")
    (fun () -> ignore (Dg.ensure_path dg [ "bad" ]))

let test_add_remove_instance () =
  let dg = Dg.build (sample ()) in
  let n = Dg.add_instance dg [ "people"; "person" ] in
  check "count bumped" 3 n.Dg.target_count;
  Dg.remove_instance dg [ "people"; "person" ];
  check "count back" 2 n.Dg.target_count;
  Alcotest.check_raises "remove unknown"
    (Invalid_argument "Dataguide.remove_instance: unknown path people/ghost2")
    (fun () -> Dg.remove_instance dg [ "people"; "ghost2" ])

let test_subtree_maintenance () =
  let doc = sample () in
  let dg = Dg.build doc in
  (* Graft a new person with a new sub-path. *)
  let person = Doc.fresh_node doc ~label:"person" () in
  let email = Doc.fresh_node doc ~label:"email" ~text:"x@y" () in
  Node.add_child person email;
  Node.add_child doc.Doc.root person;
  Dg.add_subtree dg person;
  checkb "still valid" true (Dg.validate dg doc = Ok ());
  checkb "email path exists" true
    (Dg.find_path dg [ "people"; "person"; "email" ] <> None);
  (* Now remove it again. *)
  Node.iter (fun n -> Dg.remove_instance dg (Node.label_path n)) person;
  ignore (Node.detach person);
  Doc.unregister_subtree doc person;
  checkb "valid after removal" true (Dg.validate dg doc = Ok ())

let test_ancestors_and_label_path () =
  let dg = Dg.build (sample ()) in
  match Dg.find_path dg [ "people"; "person"; "name" ] with
  | None -> Alcotest.fail "name path missing"
  | Some n ->
    Alcotest.(check (list string)) "label path" [ "people"; "person"; "name" ]
      (Dg.label_path n);
    check "two ancestors" 2 (List.length (Dg.ancestors n));
    Alcotest.(check string) "nearest first" "person"
      (List.hd (Dg.ancestors n)).Dg.label

let test_match_path () =
  let dg = Dg.build (sample ()) in
  let m s = List.length (Dg.match_path dg (P.parse s)) in
  check "exact" 1 (m "/people/person/name");
  check "wildcard" 1 (m "/people/*/name");
  check "descendant" 1 (m "//name");
  check "descendant multi (wildcard skips attrs)" 3 (m "//person//*" + m "//person");
  check "predicates ignored structurally" 1 (m "/people/person[@id = \"1\"]");
  check "no match" 0 (m "/people/order")

let test_match_root () =
  let dg = Dg.build (sample ()) in
  check "root by absolute path" 1 (List.length (Dg.match_path dg (P.parse "/people")));
  check "root by //" 1 (List.length (Dg.match_path dg (P.parse "//people")))

let test_version_counter () =
  let dg = Dg.build (sample ()) in
  let v0 = Dg.version dg in
  (* Read-only operations leave the version alone. *)
  ignore (Dg.find_path dg [ "people"; "person" ]);
  ignore (Dg.match_path dg (P.parse "/people/person/name"));
  check "reads do not bump" v0 (Dg.version dg);
  ignore (Dg.add_instance dg [ "people"; "person" ]);
  checkb "add_instance bumps" true (Dg.version dg > v0);
  let v1 = Dg.version dg in
  Dg.remove_instance dg [ "people"; "person" ];
  checkb "remove_instance bumps" true (Dg.version dg > v1);
  let v2 = Dg.version dg in
  ignore (Dg.ensure_path dg [ "people"; "brand_new" ]);
  checkb "node creation bumps" true (Dg.version dg > v2);
  let v3 = Dg.version dg in
  ignore (Dg.ensure_path dg [ "people"; "brand_new" ]);
  check "ensure of existing path does not bump" v3 (Dg.version dg)

let test_descendants_or_self () =
  let dg = Dg.build (sample ()) in
  check "all nodes from root" (Dg.size dg)
    (List.length (Dg.descendants_or_self dg.Dg.root))

(* --- properties over random/XMark documents ----------------------------- *)

let prop_dataguide_size_bounded =
  QCheck.Test.make ~name:"dataguide no bigger than document" ~count:20
    QCheck.(int_range 200 2000)
    (fun nodes ->
      let doc = Generator.generate (Generator.params_of_nodes nodes) in
      let dg = Dg.build doc in
      Dg.size dg <= Doc.size doc)

let prop_dataguide_valid_on_xmark =
  QCheck.Test.make ~name:"dataguide validates on generated documents" ~count:10
    QCheck.(int_range 200 1500)
    (fun nodes ->
      let doc = Generator.generate (Generator.params_of_nodes nodes) in
      Dg.validate (Dg.build doc) doc = Ok ())

let prop_every_doc_path_matches =
  QCheck.Test.make ~name:"every document label path has a dataguide node"
    ~count:10
    QCheck.(int_range 200 1000)
    (fun nodes ->
      let doc = Generator.generate (Generator.params_of_nodes nodes) in
      let dg = Dg.build doc in
      let ok = ref true in
      Node.iter
        (fun n ->
          match Dg.find_path dg (Node.label_path n) with
          | Some g when g.Dg.target_count > 0 -> ()
          | _ -> ok := false)
        doc.Doc.root;
      !ok)

let prop_compression_on_xmark =
  (* The whole point of DataGuide locking: on regular data the summary is
     far smaller than the document. *)
  QCheck.Test.make ~name:"xmark dataguide compresses at least 5x" ~count:5
    QCheck.(int_range 2000 6000)
    (fun nodes ->
      let doc = Generator.generate (Generator.params_of_nodes nodes) in
      let dg = Dg.build doc in
      Dg.size dg * 5 <= Doc.size doc)

let () =
  Alcotest.run "dataguide"
    [ ( "construction",
        [ Alcotest.test_case "dedups label paths" `Quick test_build_dedups_paths;
          Alcotest.test_case "validate" `Quick test_validate_after_build;
          Alcotest.test_case "find/ensure" `Quick test_find_and_ensure ] );
      ( "maintenance",
        [ Alcotest.test_case "add/remove instance" `Quick test_add_remove_instance;
          Alcotest.test_case "subtree add/remove" `Quick test_subtree_maintenance;
          Alcotest.test_case "version counter" `Quick test_version_counter ] );
      ( "matching",
        [ Alcotest.test_case "ancestors/label path" `Quick test_ancestors_and_label_path;
          Alcotest.test_case "match_path" `Quick test_match_path;
          Alcotest.test_case "match root" `Quick test_match_root;
          Alcotest.test_case "descendants_or_self" `Quick test_descendants_or_self ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_dataguide_size_bounded;
          QCheck_alcotest.to_alcotest prop_dataguide_valid_on_xmark;
          QCheck_alcotest.to_alcotest prop_every_doc_path_matches;
          QCheck_alcotest.to_alcotest prop_compression_on_xmark ] ) ]
