(* Tests for the update language: parsing the textual syntax, applying each
   operation kind, undo correctness (including the apply∘undo identity
   property), and DataGuide delta consistency. *)

module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Xml_parser = Dtx_xml.Parser
module Printer = Dtx_xml.Printer
module P = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Dg = Dtx_dataguide.Dataguide
module Generator = Dtx_xmark.Generator
module Queries = Dtx_xmark.Queries
module Rng = Dtx_util.Rng

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let store_doc () =
  Xml_parser.parse ~name:"d2"
    "<products>\n\
     <product><id>4</id><description>Pen</description><price>1.20</price></product>\n\
     <product><id>14</id><description>Ink</description><price>3.50</price></product>\n\
     </products>"

let apply_exn doc op =
  match Exec.apply doc op with
  | Ok eff -> eff
  | Error e -> Alcotest.failf "apply failed: %s" (Exec.error_to_string e)

(* --- Op parsing --------------------------------------------------------- *)

let test_parse_query () =
  match Op.parse "QUERY /products/product[id = \"4\"]" with
  | Ok (Op.Query _) -> ()
  | Ok op -> Alcotest.failf "wrong op %s" (Op.to_string op)
  | Error e -> Alcotest.fail e

let test_parse_insert () =
  match Op.parse "insert into /products <product><id>13</id></product>" with
  | Ok (Op.Insert { pos = Op.Into; fragment; _ }) ->
    checkb "fragment kept" true (String.length fragment > 0)
  | Ok op -> Alcotest.failf "wrong op %s" (Op.to_string op)
  | Error e -> Alcotest.fail e

let test_parse_insert_positions () =
  (match Op.parse "INSERT AFTER /products/product[1] <product/>" with
   | Ok (Op.Insert { pos = Op.After; _ }) -> ()
   | _ -> Alcotest.fail "after");
  match Op.parse "INSERT BEFORE /products/product[1] <product/>" with
  | Ok (Op.Insert { pos = Op.Before; _ }) -> ()
  | _ -> Alcotest.fail "before"

let test_parse_rename_change () =
  (match Op.parse "RENAME /products/product[1]/description TO label" with
   | Ok (Op.Rename { new_label = "label"; _ }) -> ()
   | _ -> Alcotest.fail "rename");
  match Op.parse "CHANGE /products/product[1]/price TO \"9.99\"" with
  | Ok (Op.Change { new_text = "9.99"; _ }) -> ()
  | _ -> Alcotest.fail "change"

let test_parse_transpose_remove () =
  (match Op.parse "TRANSPOSE //product[id = \"4\"] INTO /products" with
   | Ok (Op.Transpose _) -> ()
   | _ -> Alcotest.fail "transpose");
  match Op.parse "REMOVE //product[id = \"14\"]" with
  | Ok (Op.Remove _) -> ()
  | _ -> Alcotest.fail "remove"

let test_parse_errors () =
  let expect_error s =
    match Op.parse s with
    | Error _ -> ()
    | Ok op -> Alcotest.failf "expected error, got %s" (Op.to_string op)
  in
  expect_error "";
  expect_error "FROBNICATE /a";
  expect_error "INSERT SIDEWAYS /a <x/>";
  expect_error "INSERT INTO /a";
  expect_error "RENAME /a";
  expect_error "TRANSPOSE /a";
  (* empty path after keyword *)
  expect_error "QUERY ["

let test_parse_to_string_roundtrip () =
  List.iter
    (fun s ->
      match Op.parse s with
      | Ok op -> (
        match Op.parse (Op.to_string op) with
        | Ok op2 -> checkb ("roundtrip " ^ s) true (op = op2)
        | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail e)
    [ "QUERY /products/product";
      "INSERT INTO /products <product><id>9</id></product>";
      "REMOVE //product[id = \"4\"]";
      "RENAME /products/product[1] TO item";
      "CHANGE //price TO \"7.77\"";
      "TRANSPOSE //product[id = \"4\"] INTO /products" ]

let test_parse_script () =
  let script =
    "# restock\n\
     QUERY /products/product\n\
     \n\
     INSERT INTO /products <product><id>9</id></product>\n\
     CHANGE //product[id = \"9\"]/id TO \"10\"\n"
  in
  match Op.parse_script script with
  | Ok ops -> check "three ops" 3 (List.length ops)
  | Error e -> Alcotest.fail e

let test_parse_script_error_line () =
  match Op.parse_script "QUERY /a\nBOGUS /b\n" with
  | Error e -> checkb "line number reported" true (String.length e > 6 && String.sub e 0 6 = "line 2")
  | Ok _ -> Alcotest.fail "expected error"

(* --- apply -------------------------------------------------------------- *)

let test_query_results () =
  let doc = store_doc () in
  let eff = apply_exn doc (Op.Query (P.parse "/products/product/price")) in
  check "two prices" 2 eff.Exec.result_count;
  check "no undo for query" 0 (List.length eff.Exec.undo);
  checkb "touched counted" true (eff.Exec.touched > 0)

let test_insert_into () =
  let doc = store_doc () in
  let before = Doc.size doc in
  let eff =
    apply_exn doc
      (Op.Insert
         { target = P.parse "/products";
           pos = Op.Into;
           fragment = "<product><id>13</id><description>Mouse</description><price>10.30</price></product>" })
  in
  check "grew by 4" (before + 4) (Doc.size doc);
  check "one insertion" 1 eff.Exec.result_count;
  check "three products" 3
    (List.length (Eval.select doc (P.parse "/products/product")));
  checkb "doc valid" true (Doc.validate doc = Ok ())

let test_insert_after_before () =
  let doc = store_doc () in
  ignore
    (apply_exn doc
       (Op.Insert
          { target = P.parse "/products/product[1]";
            pos = Op.After;
            fragment = "<sep/>" }));
  let kids = List.map (fun n -> n.Node.label) (Node.children doc.Doc.root) in
  Alcotest.(check (list string)) "after" [ "product"; "sep"; "product" ] kids;
  ignore
    (apply_exn doc
       (Op.Insert
          { target = P.parse "/products/product[1]";
            pos = Op.Before;
            fragment = "<first/>" }));
  let kids = List.map (fun n -> n.Node.label) (Node.children doc.Doc.root) in
  Alcotest.(check (list string)) "before" [ "first"; "product"; "sep"; "product" ] kids

let test_insert_bad_fragment () =
  let doc = store_doc () in
  match
    Exec.apply doc
      (Op.Insert { target = P.parse "/products"; pos = Op.Into; fragment = "<broken" })
  with
  | Error (Exec.Invalid_op _) -> ()
  | _ -> Alcotest.fail "expected Invalid_op"

let test_remove () =
  let doc = store_doc () in
  let eff = apply_exn doc (Op.Remove (P.parse "//product[id = \"4\"]")) in
  check "one removed" 1 eff.Exec.result_count;
  check "one product left" 1
    (List.length (Eval.select doc (P.parse "/products/product")));
  checkb "valid" true (Doc.validate doc = Ok ())

let test_remove_root_rejected () =
  let doc = store_doc () in
  match Exec.apply doc (Op.Remove (P.parse "/products")) with
  | Error (Exec.Invalid_op _) -> ()
  | _ -> Alcotest.fail "expected Invalid_op for root removal"

let test_remove_nested_targets () =
  (* Removing //x where targets nest: ancestor removal carries descendants. *)
  let doc = Xml_parser.parse ~name:"d" "<r><x><x/></x><x/></r>" in
  let eff = apply_exn doc (Op.Remove (P.parse "//x")) in
  (* Outer x (with nested) and sibling x — nested one skipped. *)
  check "two detached" 2 eff.Exec.result_count;
  check "root empty" 0 (List.length (Node.children doc.Doc.root))

let test_rename () =
  let doc = store_doc () in
  ignore
    (apply_exn doc
       (Op.Rename { target = P.parse "//description"; new_label = "label" }));
  check "no descriptions" 0 (List.length (Eval.select doc (P.parse "//description")));
  check "two labels" 2 (List.length (Eval.select doc (P.parse "//label")))

let test_change () =
  let doc = store_doc () in
  ignore
    (apply_exn doc
       (Op.Change { target = P.parse "//product[id = \"4\"]/price"; new_text = "2.00" }));
  let prices = Eval.select doc (P.parse "//product[id = \"4\"]/price") in
  checks "changed" "2.00" (Node.text_content (List.hd prices))

let test_transpose () =
  let doc =
    Xml_parser.parse ~name:"d"
      "<r><a><x><k>1</k></x></a><b/></r>"
  in
  ignore
    (apply_exn doc
       (Op.Transpose { source = P.parse "//x"; dest = P.parse "/r/b" }));
  check "moved" 1 (List.length (Eval.select doc (P.parse "/r/b/x/k")));
  check "gone from a" 0 (List.length (Eval.select doc (P.parse "/r/a/x")));
  checkb "valid" true (Doc.validate doc = Ok ())

let test_transpose_into_own_subtree_rejected () =
  let doc = Xml_parser.parse ~name:"d" "<r><a><b/></a></r>" in
  match
    Exec.apply doc (Op.Transpose { source = P.parse "/r/a"; dest = P.parse "/r/a/b" })
  with
  | Error (Exec.Invalid_op _) -> ()
  | _ -> Alcotest.fail "expected Invalid_op"

let test_target_not_found () =
  let doc = store_doc () in
  match Exec.apply doc (Op.Remove (P.parse "//ghost")) with
  | Error (Exec.Target_not_found _) -> ()
  | _ -> Alcotest.fail "expected Target_not_found"

(* --- undo --------------------------------------------------------------- *)

let snapshot doc = Printer.to_string ~indent:false ~decl:false doc

let test_undo_each_kind () =
  let ops =
    [ Op.Insert
        { target = P.parse "/products/product[1]";
          pos = Op.Into;
          fragment = "<tag>new</tag>" };
      Op.Insert { target = P.parse "/products/product[1]"; pos = Op.After; fragment = "<z/>" };
      Op.Remove (P.parse "//product[id = \"14\"]");
      Op.Rename { target = P.parse "//description"; new_label = "info" };
      Op.Change { target = P.parse "//price"; new_text = "0.00" };
      Op.Transpose
        { source = P.parse "//product[id = \"4\"]"; dest = P.parse "/products/product[id = \"14\"]" } ]
  in
  List.iter
    (fun op ->
      let doc = store_doc () in
      let before = snapshot doc in
      let eff = apply_exn doc op in
      checkb "apply changed something" true (snapshot doc <> before);
      ignore (Exec.undo doc eff.Exec.undo);
      checks ("undo restores: " ^ Op.to_string op) before (snapshot doc);
      checkb "valid after undo" true (Doc.validate doc = Ok ()))
    ops

let test_dg_deltas_consistent () =
  (* Applying an op and feeding its dg deltas into the DataGuide must keep
     the DataGuide exact; same for the undo deltas. *)
  let doc = store_doc () in
  let dg = Dg.build doc in
  let feed deltas =
    List.iter
      (function
        | Exec.Dg_add p -> ignore (Dg.add_instance dg p)
        | Exec.Dg_remove p -> Dg.remove_instance dg p)
      deltas
  in
  let op =
    Op.Insert
      { target = P.parse "/products";
        pos = Op.Into;
        fragment = "<product><id>99</id><price>5.00</price></product>" }
  in
  let eff = apply_exn doc op in
  feed eff.Exec.dg;
  checkb "dg valid after apply" true (Dg.validate dg doc = Ok ());
  let undo_deltas = Exec.undo doc eff.Exec.undo in
  feed undo_deltas;
  checkb "dg valid after undo" true (Dg.validate dg doc = Ok ())

(* Property: a random sequence of generated updates, undone in reverse order,
   restores the document exactly — this is precisely what DTX relies on when
   aborting a transaction (Alg. 6). *)
let prop_apply_undo_identity =
  QCheck.Test.make ~name:"random update sequences undo exactly" ~count:40
    QCheck.(pair small_nat (int_range 1 8))
    (fun (seed, n_ops) ->
      let doc = Generator.generate ~name:"w" (Generator.params_of_nodes 400) in
      let rng = Rng.create (seed + 1) in
      let counter = ref 0 in
      let fresh () = incr counter; !counter in
      let before = snapshot doc in
      let effs = ref [] in
      for _ = 1 to n_ops do
        let op = Queries.gen_update rng ~fresh (Queries.pools doc) in
        match Exec.apply doc op with
        | Ok eff -> effs := eff :: !effs
        | Error _ -> () (* e.g. removing an id a previous op removed *)
      done;
      (* Undo newest-first. *)
      List.iter (fun eff -> ignore (Exec.undo doc eff.Exec.undo)) !effs;
      snapshot doc = before && Doc.validate doc = Ok ())

let prop_dg_maintained_under_updates =
  QCheck.Test.make ~name:"dataguide stays exact under random updates" ~count:25
    QCheck.(pair small_nat (int_range 1 6))
    (fun (seed, n_ops) ->
      let doc = Generator.generate ~name:"w" (Generator.params_of_nodes 400) in
      let dg = Dg.build doc in
      let rng = Rng.create (seed + 77) in
      let counter = ref 0 in
      let fresh () = incr counter; !counter in
      let ok = ref true in
      for _ = 1 to n_ops do
        let op = Queries.gen_update rng ~fresh (Queries.pools doc) in
        match Exec.apply doc op with
        | Ok eff ->
          List.iter
            (function
              | Exec.Dg_add p -> ignore (Dg.add_instance dg p)
              | Exec.Dg_remove p -> Dg.remove_instance dg p)
            eff.Exec.dg;
          if Dg.validate dg doc <> Ok () then ok := false
        | Error _ -> ()
      done;
      !ok)

let () =
  Alcotest.run "update"
    [ ( "parse",
        [ Alcotest.test_case "query" `Quick test_parse_query;
          Alcotest.test_case "insert" `Quick test_parse_insert;
          Alcotest.test_case "insert positions" `Quick test_parse_insert_positions;
          Alcotest.test_case "rename/change" `Quick test_parse_rename_change;
          Alcotest.test_case "transpose/remove" `Quick test_parse_transpose_remove;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_parse_to_string_roundtrip;
          Alcotest.test_case "script" `Quick test_parse_script;
          Alcotest.test_case "script errors" `Quick test_parse_script_error_line ] );
      ( "apply",
        [ Alcotest.test_case "query" `Quick test_query_results;
          Alcotest.test_case "insert into" `Quick test_insert_into;
          Alcotest.test_case "insert after/before" `Quick test_insert_after_before;
          Alcotest.test_case "bad fragment" `Quick test_insert_bad_fragment;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove root rejected" `Quick test_remove_root_rejected;
          Alcotest.test_case "nested removes" `Quick test_remove_nested_targets;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "change" `Quick test_change;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "transpose cycle rejected" `Quick
            test_transpose_into_own_subtree_rejected;
          Alcotest.test_case "target not found" `Quick test_target_not_found ] );
      ( "undo",
        [ Alcotest.test_case "each kind" `Quick test_undo_each_kind;
          Alcotest.test_case "dg deltas" `Quick test_dg_deltas_consistent;
          QCheck_alcotest.to_alcotest prop_apply_undo_identity;
          QCheck_alcotest.to_alcotest prop_dg_maintained_under_updates ] ) ]
