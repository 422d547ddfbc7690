(* Tests for the XMark-schema generator and the adapted query/update
   workload generators. *)

module Generator = Dtx_xmark.Generator
module Queries = Dtx_xmark.Queries
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Printer = Dtx_xml.Printer
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Eval = Dtx_xpath.Eval
module P = Dtx_xpath.Parser
module Rng = Dtx_util.Rng
module Fragment = Dtx_frag.Fragment

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_schema_sections () =
  let doc = Generator.generate Generator.default_params in
  Alcotest.(check string) "root" "site" doc.Doc.root.Node.label;
  Alcotest.(check (list string)) "Fig. 7 sections"
    [ "regions"; "categories"; "catgraph"; "people"; "open_auctions";
      "closed_auctions" ]
    (List.map (fun n -> n.Node.label) (Node.children doc.Doc.root))

let test_six_regions () =
  let doc = Generator.generate Generator.default_params in
  let regions = Eval.select doc (P.parse "/site/regions/*") in
  Alcotest.(check (list string)) "continents" Generator.regions
    (List.map (fun n -> n.Node.label) regions)

let test_entity_counts () =
  let p = { Generator.default_params with persons = 7; open_auctions = 5 } in
  let doc = Generator.generate p in
  check "persons" 7 (List.length (Generator.person_ids doc));
  check "auctions" 5 (List.length (Generator.open_auction_ids doc));
  check "items" (p.Generator.items_per_region * 6)
    (List.length (Generator.item_ids doc))

let test_person_structure () =
  let doc = Generator.generate Generator.default_params in
  let persons = Eval.select doc (P.parse "/site/people/person") in
  List.iter
    (fun person ->
      checkb "has @id" true (Node.attribute person "id" <> None);
      checkb "has name" true (Node.find_child person ~label:"name" <> None);
      checkb "has address/city" true
        (Eval.select_from person (P.parse "address/city") <> []))
    persons

let test_auction_structure () =
  let doc = Generator.generate Generator.default_params in
  let oas = Eval.select doc (P.parse "/site/open_auctions/open_auction") in
  List.iter
    (fun oa ->
      checkb "has bidder" true (Node.find_child oa ~label:"bidder" <> None);
      checkb "has current" true (Node.find_child oa ~label:"current" <> None);
      checkb "has itemref" true (Node.find_child oa ~label:"itemref" <> None))
    oas

let test_deterministic () =
  let a = Generator.generate Generator.default_params in
  let b = Generator.generate Generator.default_params in
  checkb "same seed same doc" true (Doc.equal_structure a b);
  let c = Generator.generate { Generator.default_params with seed = 99 } in
  checkb "different seed differs" false (Doc.equal_structure a c)

let test_params_of_nodes_sizing () =
  List.iter
    (fun target ->
      let doc = Generator.generate (Generator.params_of_nodes target) in
      let size = Doc.size doc in
      let err = abs (size - target) in
      checkb
        (Printf.sprintf "target %d -> %d (within 20%%)" target size)
        true
        (err * 5 <= target))
    [ 500; 2000; 10000 ]

let test_params_of_mb () =
  let p = Generator.params_of_mb 4.0 in
  let doc = Generator.generate p in
  let size = Doc.size doc in
  checkb "4 MB ~ 1000 nodes" true (size > 800 && size < 1200)

let test_generated_doc_valid_and_printable () =
  let doc = Generator.generate (Generator.params_of_nodes 1000) in
  checkb "valid" true (Doc.validate doc = Ok ());
  let printed = Printer.to_string doc in
  let reparsed = Dtx_xml.Parser.parse ~name:"x" printed in
  checkb "roundtrips" true (Doc.equal_structure doc reparsed)

let test_adapted_queries_parse () =
  List.iter
    (fun (name, text) ->
      match P.parse text with
      | (_ : Dtx_xpath.Ast.path) -> ()
      | exception P.Parse_error (m, _) -> Alcotest.failf "%s: %s" name m)
    Queries.adapted_queries;
  checkb "at least ten" true (List.length Queries.adapted_queries >= 10)

let test_gen_query_runs () =
  let doc = Generator.generate (Generator.params_of_nodes 800) in
  let pools = Queries.pools doc in
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    match Queries.gen_query rng pools with
    | Op.Query p -> ignore (Eval.select doc p)
    | op -> Alcotest.failf "not a query: %s" (Op.to_string op)
  done

let test_gen_update_applies () =
  let doc = Generator.generate (Generator.params_of_nodes 800) in
  let rng = Rng.create 6 in
  let counter = ref 0 in
  let fresh () = incr counter; !counter in
  let applied = ref 0 in
  for _ = 1 to 60 do
    let op = Queries.gen_update rng ~fresh (Queries.pools doc) in
    checkb "is update" true (Op.is_update op);
    match Exec.apply doc op with
    | Ok _ -> incr applied
    | Error (Exec.Target_not_found _) ->
      (* Allowed: an earlier generated remove can take an id away. *)
      ()
    | Error e -> Alcotest.failf "unexpected failure: %s" (Exec.error_to_string e)
  done;
  checkb "most updates applied" true (!applied >= 50);
  checkb "doc still valid" true (Doc.validate doc = Ok ())

let test_gen_update_on_fragment () =
  (* Updates generated against a fragment must reference data that fragment
     actually holds. *)
  let base = Generator.generate (Generator.params_of_nodes 1200) in
  let frags = Fragment.fragment base ~parts:3 in
  let rng = Rng.create 9 in
  let counter = ref 0 in
  let fresh () = incr counter; !counter in
  List.iter
    (fun frag ->
      for _ = 1 to 25 do
        let op = Queries.gen_update rng ~fresh (Queries.pools frag) in
        match Exec.apply frag op with
        | Ok _ -> ()
        | Error (Exec.Target_not_found _) -> ()
        | Error e -> Alcotest.failf "%s" (Exec.error_to_string e)
      done)
    frags

(* The pools hold the ids [Generator]'s id functions list, in the same
   order, and the region elements under [regions]. *)
let test_pools_match_fragment () =
  let base = Generator.generate (Generator.params_of_mb 4.0) in
  let frags = Fragment.fragment base ~parts:4 in
  let ids = Alcotest.(check (array string)) in
  let region_count = ref 0 in
  List.iter
    (fun (frag : Doc.t) ->
      let pools = Queries.pools frag in
      ids "persons" (Array.of_list (Generator.person_ids frag)) pools.persons;
      ids "items" (Array.of_list (Generator.item_ids frag)) pools.items;
      ids "auctions"
        (Array.of_list (Generator.open_auction_ids frag))
        pools.auctions;
      let under_regions =
        Eval.select frag (P.parse "/site/regions/*")
        |> List.map (fun n -> n.Node.label)
        |> List.filter (fun l -> List.mem l Generator.regions)
      in
      ids "regions" (Array.of_list under_regions) pools.regions;
      region_count := !region_count + Array.length pools.regions;
      checkb "fragment has persons" true (pools.persons <> [||]))
    frags;
  (* Each region is one fragmentation unit, so exactly one fragment has it. *)
  check "every region once" (List.length Generator.regions) !region_count

(* A fragment with no items and no auctions: queries fall back to the
   placeholder ids, and updates never target an item or an auction. *)
let test_pools_without_items_or_auctions () =
  let frag =
    Dtx_xml.Parser.parse ~name:"bare"
      "<site><regions><europe/></regions><people><person id=\"p3\"><name>P</name></person></people><open_auctions/></site>"
  in
  let pools = Queries.pools frag in
  check "no items" 0 (Array.length pools.items);
  check "no auctions" 0 (Array.length pools.auctions);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  let rng = Rng.create 11 in
  let item_q = ref 0 and auction_q = ref 0 in
  for _ = 1 to 200 do
    let text = Op.to_string (Queries.gen_query rng pools) in
    if contains text "item[@id" then begin
      incr item_q;
      checkb ("item fallback: " ^ text) true (contains text "\"i0\"")
    end;
    if contains text "open_auction[@id" then begin
      incr auction_q;
      checkb ("auction fallback: " ^ text) true (contains text "\"oa0\"")
    end
  done;
  checkb "item queries drawn" true (!item_q > 0);
  checkb "auction queries drawn" true (!auction_q > 0);
  let counter = ref 0 in
  let fresh () = incr counter; !counter in
  for _ = 1 to 200 do
    match Queries.gen_update rng ~fresh pools with
    | Op.Insert { target; pos = Op.Into; _ } ->
      let t = Dtx_xpath.Ast.to_string target in
      checkb ("insert target: " ^ t) true
        (t = "/site/people" || t = "/site/regions/europe")
    | op -> Alcotest.failf "item or auction operation offered: %s" (Op.to_string op)
  done

let prop_scaling_monotone =
  QCheck.Test.make ~name:"bigger parameter targets give bigger documents"
    ~count:10
    QCheck.(int_range 300 4000)
    (fun n ->
      let small = Doc.size (Generator.generate (Generator.params_of_nodes n)) in
      let large = Doc.size (Generator.generate (Generator.params_of_nodes (n * 3))) in
      large > small)

let () =
  Alcotest.run "xmark"
    [ ( "generator",
        [ Alcotest.test_case "schema sections" `Quick test_schema_sections;
          Alcotest.test_case "six regions" `Quick test_six_regions;
          Alcotest.test_case "entity counts" `Quick test_entity_counts;
          Alcotest.test_case "person structure" `Quick test_person_structure;
          Alcotest.test_case "auction structure" `Quick test_auction_structure;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "node sizing" `Quick test_params_of_nodes_sizing;
          Alcotest.test_case "mb sizing" `Quick test_params_of_mb;
          Alcotest.test_case "valid + printable" `Quick
            test_generated_doc_valid_and_printable;
          QCheck_alcotest.to_alcotest prop_scaling_monotone ] );
      ( "workload",
        [ Alcotest.test_case "adapted queries parse" `Quick test_adapted_queries_parse;
          Alcotest.test_case "gen_query runs" `Quick test_gen_query_runs;
          Alcotest.test_case "gen_update applies" `Quick test_gen_update_applies;
          Alcotest.test_case "fragment-aware updates" `Quick test_gen_update_on_fragment;
          Alcotest.test_case "pools match fragment" `Quick test_pools_match_fragment;
          Alcotest.test_case "pools without items or auctions" `Quick
            test_pools_without_items_or_auctions ] ) ]
