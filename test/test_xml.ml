(* Tests for the XML data model: tree operations, documents, parser and
   printer (including a parse∘print round-trip property). *)

module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Parser = Dtx_xml.Parser
module Printer = Dtx_xml.Printer
module Rng = Dtx_util.Rng

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let sample =
  "<people><person id=\"4\"><name>Ana</name></person>\n\
   <person id=\"22\"><name>Patricia</name></person></people>"

(* --- Node --------------------------------------------------------------- *)

let test_add_detach () =
  let doc = Doc.create ~name:"d" ~root_label:"root" in
  let a = Doc.fresh_node doc ~label:"a" () in
  let b = Doc.fresh_node doc ~label:"b" () in
  Node.add_child doc.Doc.root a;
  Node.add_child doc.Doc.root b;
  check "two children" 2 (List.length (Node.children doc.Doc.root));
  check "index of b" 1 (Node.child_index b);
  let idx = Node.detach a in
  check "detached from 0" 0 idx;
  check "one child left" 1 (List.length (Node.children doc.Doc.root));
  checkb "parent cleared" true (a.Node.parent = None);
  Alcotest.check_raises "double add"
    (Invalid_argument "Node.add_child: child already attached") (fun () ->
      Node.add_child doc.Doc.root b)

let test_insert_child_positions () =
  let doc = Doc.create ~name:"d" ~root_label:"r" in
  let mk l = Doc.fresh_node doc ~label:l () in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  Node.add_child doc.Doc.root a;
  Node.insert_child doc.Doc.root ~at:0 b;
  Node.insert_child doc.Doc.root ~at:99 c;
  Alcotest.(check (list string)) "order" [ "b"; "a"; "c" ]
    (List.map (fun n -> n.Node.label) (Node.children doc.Doc.root))

let test_paths_and_ancestors () =
  let doc = Parser.parse ~name:"d" sample in
  let person = List.nth (Node.children doc.Doc.root) 0 in
  let name =
    match Node.find_child person ~label:"name" with
    | Some n -> n
    | None -> Alcotest.fail "no name child"
  in
  Alcotest.(check (list string)) "label path" [ "people"; "person"; "name" ]
    (Node.label_path name);
  check "depth" 2 (Node.depth name);
  check "ancestors" 2 (List.length (Node.ancestors name));
  checks "nearest ancestor" "person" (List.hd (Node.ancestors name)).Node.label

let test_attribute_access () =
  let doc = Parser.parse ~name:"d" sample in
  let person = List.hd (Node.children doc.Doc.root) in
  Alcotest.(check (option string)) "attr" (Some "4") (Node.attribute person "id");
  Alcotest.(check (option string)) "missing attr" None (Node.attribute person "nope");
  checkb "attr node flag" true
    (match Node.find_child person ~label:"@id" with
     | Some a -> Node.is_attribute a
     | None -> false)

let test_text_content () =
  let doc = Parser.parse ~name:"d" sample in
  let person = List.hd (Node.children doc.Doc.root) in
  checks "element text" "Ana" (Node.text_content person);
  (* An attribute node's own text must be readable too. *)
  (match Node.find_child person ~label:"@id" with
   | Some a -> checks "attribute text" "4" (Node.text_content a)
   | None -> Alcotest.fail "no @id")

let test_subtree_size_and_iter () =
  let doc = Parser.parse ~name:"d" sample in
  (* people + 2*(person + @id + name) = 7 *)
  check "size" 7 (Node.subtree_size doc.Doc.root);
  check "doc size agrees" 7 (Doc.size doc);
  let seen = ref 0 in
  Node.iter (fun _ -> incr seen) doc.Doc.root;
  check "iter visits all" 7 !seen;
  check "descendant_or_self" 7 (List.length (Node.descendant_or_self doc.Doc.root))

let test_clone_fresh_ids () =
  let doc = Parser.parse ~name:"d" sample in
  let next = ref 1000 in
  let copy = Node.clone ~alloc:(fun () -> incr next; !next) doc.Doc.root in
  checkb "structurally equal" true (Node.equal_structure doc.Doc.root copy);
  checkb "ids differ" true (copy.Node.id <> doc.Doc.root.Node.id);
  checkb "copy detached" true (copy.Node.parent = None)

(* --- Doc ---------------------------------------------------------------- *)

let test_doc_index () =
  let doc = Parser.parse ~name:"d" sample in
  Node.iter
    (fun n ->
      match Doc.find doc n.Node.id with
      | Some m -> checkb "index points to node" true (m == n)
      | None -> Alcotest.failf "id %d missing" n.Node.id)
    doc.Doc.root;
  Alcotest.(check bool) "validate ok" true (Doc.validate doc = Ok ())

let test_doc_clone_preserves_ids () =
  let doc = Parser.parse ~name:"d" sample in
  let copy = Doc.clone ~name:"d2" doc in
  checkb "equal structure" true (Doc.equal_structure doc copy);
  checks "renamed" "d2" copy.Doc.name;
  (* Replica semantics: same ids on both sides. *)
  Node.iter
    (fun n ->
      match Doc.find copy n.Node.id with
      | Some m -> checks "same label at same id" n.Node.label m.Node.label
      | None -> Alcotest.failf "id %d missing in clone" n.Node.id)
    doc.Doc.root;
  checkb "clone validates" true (Doc.validate copy = Ok ())

let test_register_unregister () =
  let doc = Doc.create ~name:"d" ~root_label:"r" in
  let n = Doc.fresh_node doc ~label:"x" () in
  Node.add_child doc.Doc.root n;
  checkb "found" true (Doc.find doc n.Node.id <> None);
  ignore (Node.detach n);
  Doc.unregister_subtree doc n;
  checkb "gone" true (Doc.find doc n.Node.id = None);
  checkb "validate ok after unregister" true (Doc.validate doc = Ok ())

(* --- Parser / Printer --------------------------------------------------- *)

let test_parse_basics () =
  let doc = Parser.parse ~name:"d" "<a x=\"1\"><b>t</b><c/></a>" in
  checks "root" "a" doc.Doc.root.Node.label;
  Alcotest.(check (option string)) "attr" (Some "1") (Node.attribute doc.Doc.root "x");
  check "children incl attr" 3 (List.length (Node.children doc.Doc.root))

let test_parse_entities () =
  let doc = Parser.parse ~name:"d" "<a>&lt;x&gt; &amp; &quot;y&quot; &#65;</a>" in
  checks "decoded" "<x> & \"y\" A" (Node.text_content doc.Doc.root)

let test_parse_skips_misc () =
  let doc =
    Parser.parse ~name:"d"
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a><!-- in --><b/></a>"
  in
  checks "root" "a" doc.Doc.root.Node.label;
  check "one element child" 1 (List.length (Node.children doc.Doc.root))

let test_parse_cdata () =
  let doc = Parser.parse ~name:"d" "<a><![CDATA[<raw> & stuff]]></a>" in
  checks "cdata" "<raw> & stuff" (Node.text_content doc.Doc.root)

let test_parse_errors () =
  let expect_fail s =
    match Parser.parse ~name:"d" s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_fail "";
  expect_fail "<a>";
  expect_fail "<a></b>";
  expect_fail "<a></a><b/>";
  expect_fail "<a attr=novalue/>";
  expect_fail "no xml at all"

let test_print_attributes_roundtrip () =
  let doc = Parser.parse ~name:"d" sample in
  let printed = Printer.to_string ~indent:false ~decl:false doc in
  let reparsed = Parser.parse ~name:"d" printed in
  checkb "roundtrip equal" true (Doc.equal_structure doc reparsed)

let test_escape () =
  checks "escaped" "&amp;&lt;&gt;&quot;&apos;" (Printer.escape "&<>\"'")

(* Random tree generator for the round-trip property. *)
type tree = T of string * string option * tree list

let gen_tree =
  let labels = [| "a"; "b"; "c"; "data"; "item" |] in
  QCheck.Gen.(
    sized_size (1 -- 30) (fun budget ->
        let rng_label = oneofa labels in
        fix
          (fun self budget ->
            let* label = rng_label in
            let* has_text = bool in
            let* text =
              if has_text then
                map Option.some (string_size ~gen:(char_range 'a' 'z') (1 -- 6))
              else return None
            in
            if budget <= 1 then return (T (label, text, []))
            else
              let* n_kids = 0 -- min 4 budget in
              let* kids =
                flatten_l
                  (List.init n_kids (fun _ -> self ((budget - 1) / max 1 n_kids)))
              in
              return (T (label, text, kids)))
          budget))

let rec build_tree doc (T (label, text, kids)) =
  let n = Doc.fresh_node doc ~label ?text () in
  List.iter (fun k -> Node.add_child n (build_tree doc k)) kids;
  n

let prop_roundtrip =
  QCheck.Test.make ~name:"print then parse preserves structure" ~count:100
    (QCheck.make gen_tree) (fun tree ->
      let doc = Doc.create ~name:"t" ~root_label:"tmp" in
      let root = build_tree doc tree in
      let doc = Doc.of_root ~name:"t" root in
      let printed = Printer.to_string ~indent:false ~decl:false doc in
      let reparsed = Dtx_xml.Parser.parse ~name:"t" printed in
      Doc.equal_structure doc reparsed)

let prop_indented_roundtrip =
  QCheck.Test.make ~name:"indented print also reparses" ~count:50
    (QCheck.make gen_tree) (fun tree ->
      let doc = Doc.create ~name:"t" ~root_label:"tmp" in
      let root = build_tree doc tree in
      let doc = Doc.of_root ~name:"t" root in
      let printed = Printer.to_string ~indent:true ~decl:true doc in
      (* Indentation may introduce surrounding whitespace for text nodes; we
         only require well-formedness here. *)
      match Dtx_xml.Parser.parse ~name:"t" printed with
      | (_ : Doc.t) -> true
      | exception Parser.Parse_error _ -> false)

let () =
  Alcotest.run "xml"
    [ ( "node",
        [ Alcotest.test_case "add/detach" `Quick test_add_detach;
          Alcotest.test_case "insert positions" `Quick test_insert_child_positions;
          Alcotest.test_case "paths/ancestors" `Quick test_paths_and_ancestors;
          Alcotest.test_case "attributes" `Quick test_attribute_access;
          Alcotest.test_case "text content" `Quick test_text_content;
          Alcotest.test_case "subtree size/iter" `Quick test_subtree_size_and_iter;
          Alcotest.test_case "clone" `Quick test_clone_fresh_ids ] );
      ( "doc",
        [ Alcotest.test_case "index" `Quick test_doc_index;
          Alcotest.test_case "clone ids" `Quick test_doc_clone_preserves_ids;
          Alcotest.test_case "register/unregister" `Quick test_register_unregister ] );
      ( "parser",
        [ Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "misc skipped" `Quick test_parse_skips_misc;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "errors" `Quick test_parse_errors ] );
      ( "printer",
        [ Alcotest.test_case "roundtrip" `Quick test_print_attributes_roundtrip;
          Alcotest.test_case "escape" `Quick test_escape ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_indented_roundtrip ] ) ]
