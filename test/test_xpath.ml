(* Tests for the XPath subset: parser, printer inverse, evaluation semantics
   (axes, wildcards, predicates), visit counting, and the streaming evaluator
   against the list-based one it replaced. *)

module Ast = Dtx_xpath.Ast
module P = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Xml_parser = Dtx_xml.Parser

let check = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)

let doc =
  Xml_parser.parse ~name:"shop"
    "<site>\n\
     <people>\n\
     <person id=\"p1\"><name>Ana</name><city>Recife</city></person>\n\
     <person id=\"p2\"><name>Bia</name><city>Natal</city></person>\n\
     <person id=\"p3\"><name>Caio</name></person>\n\
     </people>\n\
     <regions>\n\
     <europe><item id=\"i1\"><name>Mouse</name><price>10.30</price></item></europe>\n\
     <asia><item id=\"i2\"><name>Keyboard</name><price>9.90</price></item>\n\
     <item id=\"i3\"><name>Mouse</name><price>10.30</price></item></asia>\n\
     </regions>\n\
     </site>"

let labels nodes = List.map (fun n -> n.Node.label) nodes

let texts nodes = List.map Node.text_content nodes

(* --- parser ------------------------------------------------------------- *)

let test_parse_simple () =
  let p = P.parse "/site/people/person" in
  checkb "absolute" true p.Ast.absolute;
  check "steps" 3 (List.length p.Ast.steps);
  checks "rendered" "/site/people/person" (Ast.to_string p)

let test_parse_descendant_wildcard () =
  let p = P.parse "//regions/*/item" in
  (match p.Ast.steps with
   | [ s1; s2; s3 ] ->
     checkb "descendant first" true (s1.Ast.axis = Ast.Descendant);
     checkb "wildcard" true (s2.Ast.test = Ast.Wildcard);
     checkb "child item" true (s3.Ast.axis = Ast.Child)
   | _ -> Alcotest.fail "wrong steps");
  checks "rendered" "//regions/*/item" (Ast.to_string p)

let test_parse_predicates () =
  let p = P.parse "/site/people/person[@id = \"p2\"][2]/name" in
  (match p.Ast.steps with
   | [ _; _; s3; _ ] ->
     check "two predicates" 2 (List.length s3.Ast.preds)
   | _ -> Alcotest.fail "wrong steps");
  let p2 = P.parse "//item[price]" in
  (match (List.hd p2.Ast.steps).Ast.preds with
   | [ Ast.Exists _ ] -> ()
   | _ -> Alcotest.fail "exists predicate expected")

let test_parse_relative () =
  let p = P.parse "person/name" in
  checkb "relative" false p.Ast.absolute;
  check "steps" 2 (List.length p.Ast.steps)

let test_parse_errors () =
  let expect_fail s =
    match P.parse s with
    | exception P.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected error for %S" s
  in
  expect_fail "";
  expect_fail "/site/[3]";
  expect_fail "/site/person[";
  expect_fail "/site/person[name =]";
  expect_fail "/a/b]extra"

let test_roundtrip_to_string () =
  List.iter
    (fun s ->
      let p = P.parse s in
      checks ("roundtrip " ^ s) s (Ast.to_string (P.parse (Ast.to_string p))))
    [ "/site/people/person";
      "//item";
      "/site/regions/*/item[@id = \"i1\"]/name";
      "//person[address/city = \"Natal\"]";
      "/site/open_auctions/open_auction[1]/bidder[2]" ]

(* --- list-based reference evaluator --------------------------------------- *)

(* The list-based evaluator that the streaming one replaced, kept verbatim
   as a differential oracle: for every path the two must agree on the
   results (order included), on the visit count the simulator charges as
   execution cost, and on the set of nodes a traced evaluation examines. It
   carries the Buffer-based [text_content] of that version too, so equality
   predicates also check the leaf fast path of {!Node.text_content}. *)
module Listwise = struct
  let text_content (n : Node.t) =
    let buf = Buffer.create 32 in
    Node.iter
      (fun x ->
        if x == n || not (Node.is_attribute x) then
          match x.Node.text with Some s -> Buffer.add_string buf s | None -> ())
      n;
    Buffer.contents buf

  let test_matches (test : Ast.test) (n : Node.t) =
    match test with
    | Ast.Name name -> n.Node.label = name
    | Ast.Wildcard -> not (Node.is_attribute n)
    | Ast.Any -> true

  let rec strict_descendants acc (n : Node.t) =
    Dtx_util.Vec.fold_left
      (fun acc c -> strict_descendants (c :: acc) c)
      acc n.Node.children

  let candidates ~counter ~trace ~leading_absolute (axis : Ast.axis) (ctx : Node.t) =
    let nodes =
      match axis with
      | Ast.Child -> Node.children ctx
      | Ast.Descendant ->
        if leading_absolute then Node.descendant_or_self ctx
        else List.rev (strict_descendants [] ctx)
      | Ast.Parent -> (match ctx.Node.parent with Some p -> [ p ] | None -> [])
      | Ast.Self -> [ ctx ]
    in
    counter := !counter + List.length nodes;
    (match trace with
     | Some sink -> List.iter sink nodes
     | None -> ());
    nodes

  let rec apply_preds ~counter ~trace (preds : Ast.pred list) (nodes : Node.t list) =
    match preds with
    | [] -> nodes
    | Ast.Pos k :: rest ->
      let picked = match List.nth_opt nodes (k - 1) with Some n -> [ n ] | None -> [] in
      apply_preds ~counter ~trace rest picked
    | Ast.Last :: rest ->
      let picked = match List.rev nodes with n :: _ -> [ n ] | [] -> [] in
      apply_preds ~counter ~trace rest picked
    | (Ast.Exists _ | Ast.Eq _ | Ast.Neq _ | Ast.And _ | Ast.Or _) as pred :: rest ->
      apply_preds ~counter ~trace rest
        (List.filter (fun n -> pred_holds ~counter ~trace n pred) nodes)

  and pred_holds ~counter ~trace (n : Node.t) (pred : Ast.pred) =
    match pred with
    | Ast.Exists rel -> eval_rel ~counter ~trace n rel <> []
    | Ast.Eq (rel, lit) ->
      List.exists
        (fun m -> text_content m = lit)
        (eval_rel ~counter ~trace n rel)
    | Ast.Neq (rel, lit) ->
      List.exists
        (fun m -> text_content m <> lit)
        (eval_rel ~counter ~trace n rel)
    | Ast.And (a, b) ->
      pred_holds ~counter ~trace n a && pred_holds ~counter ~trace n b
    | Ast.Or (a, b) ->
      pred_holds ~counter ~trace n a || pred_holds ~counter ~trace n b
    | Ast.Pos _ | Ast.Last -> invalid_arg "Eval: positional predicate in connective"

  and eval_steps ~counter ~trace ~leading_absolute (ctxs : Node.t list)
      (steps : Ast.step list) : Node.t list =
    match steps with
    | [] -> ctxs
    | step :: rest ->
      let seen = Hashtbl.create 16 in
      let out = ref [] in
      List.iter
        (fun ctx ->
          let cands =
            candidates ~counter ~trace ~leading_absolute step.Ast.axis ctx
          in
          let matched = List.filter (test_matches step.Ast.test) cands in
          let kept = apply_preds ~counter ~trace step.Ast.preds matched in
          List.iter
            (fun n ->
              if not (Hashtbl.mem seen n.Node.id) then begin
                Hashtbl.add seen n.Node.id ();
                out := n :: !out
              end)
            kept)
        ctxs;
      eval_steps ~counter ~trace ~leading_absolute:false (List.rev !out) rest

  and eval_rel ~counter ~trace (ctx : Node.t) (p : Ast.path) =
    eval_steps ~counter ~trace ~leading_absolute:false [ ctx ] p.Ast.steps

  let eval ~counter ~trace (root : Node.t) (p : Ast.path) =
    match p.Ast.steps with
    | [] -> if p.Ast.absolute then [ root ] else []
    | first :: _ ->
      if p.Ast.absolute then
        match first.Ast.axis with
        | Ast.Parent -> []
        | Ast.Self ->
          eval_steps ~counter ~trace ~leading_absolute:false [ root ]
            (List.tl p.Ast.steps)
        | Ast.Child ->
          counter := !counter + 1;
          (match trace with Some sink -> sink root | None -> ());
          let matched =
            if test_matches first.Ast.test root then
              apply_preds ~counter ~trace first.Ast.preds [ root ]
            else []
          in
          eval_steps ~counter ~trace ~leading_absolute:false matched
            (List.tl p.Ast.steps)
        | Ast.Descendant ->
          eval_steps ~counter ~trace ~leading_absolute:true [ root ] p.Ast.steps
      else eval_steps ~counter ~trace ~leading_absolute:false [ root ] p.Ast.steps

  let select (doc : Doc.t) p =
    let counter = ref 0 in
    eval ~counter ~trace:None doc.Doc.root p

  let nodes_visited (doc : Doc.t) p =
    let counter = ref 0 in
    ignore (eval ~counter ~trace:None doc.Doc.root p);
    !counter

  let select_traced (doc : Doc.t) p =
    let counter = ref 0 in
    let seen = Hashtbl.create 256 in
    let acc = ref [] in
    let sink (n : Node.t) =
      if not (Hashtbl.mem seen n.Node.id) then begin
        Hashtbl.add seen n.Node.id ();
        acc := n :: !acc
      end
    in
    let results = eval ~counter ~trace:(Some sink) doc.Doc.root p in
    (results, List.rev !acc)
end

(* --- evaluation --------------------------------------------------------- *)

let test_select_child_chain () =
  let r = Eval.select doc (P.parse "/site/people/person") in
  check "three persons" 3 (List.length r);
  Alcotest.(check (list string)) "all person" [ "person"; "person"; "person" ]
    (labels r)

let test_select_descendant () =
  let r = Eval.select doc (P.parse "//item") in
  check "three items" 3 (List.length r);
  let r2 = Eval.select doc (P.parse "//site") in
  check "root matched by leading //" 1 (List.length r2)

let test_select_wildcard () =
  let r = Eval.select doc (P.parse "/site/regions/*") in
  Alcotest.(check (list string)) "regions" [ "europe"; "asia" ] (labels r)

let test_wildcard_excludes_attributes () =
  let r = Eval.select doc (P.parse "/site/people/person/*") in
  checkb "no attribute nodes" true
    (List.for_all (fun n -> not (Node.is_attribute n)) r)

let test_attribute_step () =
  let r = Eval.select doc (P.parse "/site/people/person/@id") in
  check "three ids" 3 (List.length r);
  Alcotest.(check (list string)) "id values" [ "p1"; "p2"; "p3" ] (texts r)

let test_eq_predicate () =
  let r = Eval.select doc (P.parse "/site/people/person[@id = \"p2\"]/name") in
  Alcotest.(check (list string)) "Bia" [ "Bia" ] (texts r);
  let r2 = Eval.select doc (P.parse "//item[price = \"10.30\"]") in
  check "two matching items" 2 (List.length r2)

let test_exists_predicate () =
  let r = Eval.select doc (P.parse "/site/people/person[city]") in
  check "two persons with city" 2 (List.length r)

let test_positional_predicate () =
  let r = Eval.select doc (P.parse "/site/people/person[2]/name") in
  Alcotest.(check (list string)) "second person" [ "Bia" ] (texts r);
  let r2 = Eval.select doc (P.parse "/site/people/person[9]") in
  check "out of range empty" 0 (List.length r2)

let test_no_duplicates () =
  (* //asia//name could revisit nodes through overlapping contexts. *)
  let r = Eval.select doc (P.parse "//asia//name") in
  check "two names" 2 (List.length r);
  let ids = List.map (fun n -> n.Node.id) r in
  check "unique" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_select_from_relative () =
  let asia = List.nth (Eval.select doc (P.parse "/site/regions/*")) 1 in
  let r = Eval.select_from asia (P.parse "item/name") in
  check "two names under asia" 2 (List.length r)

let test_matches () =
  let item = List.hd (Eval.select doc (P.parse "//item[@id = \"i1\"]")) in
  checkb "matches //item" true (Eval.matches item (P.parse "//item"));
  checkb "not matches person" false (Eval.matches item (P.parse "//person"))

let test_nodes_visited_positive () =
  checkb "visits > 0" true (Eval.nodes_visited doc (P.parse "//item") > 0);
  checkb "deeper scans cost more" true
    (Eval.nodes_visited doc (P.parse "//item[price = \"10.30\"]")
     >= Eval.nodes_visited doc (P.parse "//item"))

let test_select_traced () =
  (* The navigation cost Node2PL charges: distinct nodes the traversal
     examined, against the list-based evaluator's traced visit set. *)
  let p = P.parse "/site/people/person" in
  let results, visited = Listwise.select_traced doc p in
  check "results" 3 (List.length results);
  checkb "visited superset includes people section" true
    (List.exists (fun n -> n.Node.label = "people") visited);
  let ids = List.map (fun n -> n.Node.id) visited in
  check "visited unique" (List.length ids) (List.length (List.sort_uniq compare ids));
  check "distinct_visited counts the traced set" (List.length visited)
    (Eval.distinct_visited doc p);
  (* A node examined twice (through two contexts, or by a predicate and
     again by the step) is counted once. *)
  let p2 = P.parse "//item/name/.." in
  checkb "revisits make nodes_visited larger" true
    (Eval.nodes_visited doc p2 > Eval.distinct_visited doc p2);
  check "revisits counted once"
    (List.length (snd (Listwise.select_traced doc p2)))
    (Eval.distinct_visited doc p2)

(* --- properties ---------------------------------------------------------- *)

let prop_without_predicates_superset =
  (* Removing predicates never shrinks the result set. *)
  let paths =
    [ "/site/people/person[@id = \"p1\"]/name";
      "//item[price = \"10.30\"]";
      "/site/people/person[city][2]";
      "//person[city = \"Natal\"]/name";
      "/site/regions/*[item]" ]
  in
  QCheck.Test.make ~name:"predicate-free skeleton is a superset" ~count:25
    QCheck.(oneofl paths)
    (fun path_text ->
      let p = P.parse path_text in
      let with_preds = Eval.select doc p in
      let skeleton = Eval.select doc (Ast.without_predicates p) in
      let skel_ids = List.map (fun n -> n.Node.id) skeleton in
      List.for_all (fun n -> List.mem n.Node.id skel_ids) with_preds)

let test_parent_axis () =
  let r = Eval.select doc (P.parse "//item/name/..") in
  check "parents are items" 3 (List.length r);
  Alcotest.(check (list string)) "labels" [ "item"; "item"; "item" ] (labels r);
  let r2 = Eval.select doc (P.parse "/site/..") in
  check "root has no parent" 0 (List.length r2)

let test_self_axis () =
  let r = Eval.select doc (P.parse "/site/people/./person") in
  check "self is a no-op" 3 (List.length r);
  let r2 = Eval.select doc (P.parse "//item/.") in
  check "trailing self" 3 (List.length r2)

let test_last_predicate () =
  let r = Eval.select doc (P.parse "/site/people/person[last()]/name") in
  Alcotest.(check (list string)) "last person" [ "Caio" ] (texts r);
  (* last() within each region, not globally *)
  let r2 = Eval.select doc (P.parse "/site/regions/*/item[last()]") in
  check "one per region" 2 (List.length r2)

let test_boolean_predicates () =
  let r = Eval.select doc (P.parse "//item[price = \"10.30\" or price = \"9.90\"]") in
  check "or matches all three" 3 (List.length r);
  let r2 = Eval.select doc (P.parse "//item[name = \"Mouse\" and price = \"10.30\"]") in
  check "and narrows" 2 (List.length r2);
  let r3 = Eval.select doc (P.parse "//item[price != \"10.30\"]") in
  check "neq" 1 (List.length r3);
  let r4 = Eval.select doc (P.parse "//person[city and name = \"Ana\"]") in
  check "exists and eq" 1 (List.length r4)

let test_boolean_to_string_roundtrip () =
  List.iter
    (fun s -> checks ("roundtrip " ^ s) s (Ast.to_string (P.parse s)))
    [ "//item[price != \"1.00\"]";
      "//item[name = \"Mouse\" and price = \"10.30\"]";
      "//person[city or name = \"Ana\"]" ]

let test_parent_to_string_roundtrip () =
  List.iter
    (fun s ->
      checks ("roundtrip " ^ s) s (Ast.to_string (P.parse s)))
    [ "//item/name/.."; "/site/people/person[last()]"; "/site/./regions" ]

let test_predicate_paths () =
  let p = P.parse "/site/people/person[@id = \"p1\"]/name" in
  (match Ast.predicate_paths p with
   | [ (prefix, rel) ] ->
     checks "prefix" "/site/people/person" (Ast.to_string prefix);
     checks "rel" "@id" (Ast.to_string rel)
   | l -> Alcotest.failf "expected 1 predicate path, got %d" (List.length l));
  check "no preds -> none" 0 (List.length (Ast.predicate_paths (P.parse "//item")))

(* --- reference-evaluator oracle ------------------------------------------- *)

(* A deliberately naive evaluator, written as differently as possible from
   Eval: set-of-nodes semantics via sorted id lists, no traversal sharing,
   recomputing everything per step. Random structured paths over the shop
   document must agree with Eval. *)
module Oracle = struct
  let rec descendants n =
    List.concat_map (fun c -> c :: descendants c) (Node.children n)

  let node_test (test : Ast.test) (n : Node.t) =
    match test with
    | Ast.Name name -> n.Node.label = name
    | Ast.Wildcard -> not (Node.is_attribute n)
    | Ast.Any -> true

  let rec eval_pred (root : Node.t) (n : Node.t) (pred : Ast.pred)
      (siblings : Node.t list) =
    match pred with
    | Ast.Pos k -> (match List.nth_opt siblings (k - 1) with
                    | Some m -> m.Node.id = n.Node.id
                    | None -> false)
    | Ast.Last -> (match List.rev siblings with
                   | m :: _ -> m.Node.id = n.Node.id
                   | [] -> false)
    | Ast.Exists rel -> eval_path root [ n ] rel.Ast.steps <> []
    | Ast.Eq (rel, lit) ->
      List.exists
        (fun m -> Node.text_content m = lit)
        (eval_path root [ n ] rel.Ast.steps)
    | Ast.Neq (rel, lit) ->
      List.exists
        (fun m -> Node.text_content m <> lit)
        (eval_path root [ n ] rel.Ast.steps)
    | Ast.And (a, b) ->
      eval_pred root n a siblings && eval_pred root n b siblings
    | Ast.Or (a, b) ->
      eval_pred root n a siblings || eval_pred root n b siblings

  and eval_path root (ctxs : Node.t list) (steps : Ast.step list) =
    match steps with
    | [] -> ctxs
    | step :: rest ->
      let next =
        List.concat_map
          (fun ctx ->
            let cands =
              match step.Ast.axis with
              | Ast.Child -> Node.children ctx
              | Ast.Descendant -> descendants ctx
              | Ast.Parent -> (match ctx.Node.parent with Some p -> [ p ] | None -> [])
              | Ast.Self -> [ ctx ]
            in
            let matched = List.filter (node_test step.Ast.test) cands in
            List.filter
              (fun n -> List.for_all (fun p -> eval_pred root n p matched) step.Ast.preds)
              matched)
          ctxs
      in
      (* dedup by id, keep first occurrence *)
      let seen = Hashtbl.create 8 in
      let next =
        List.filter
          (fun (n : Node.t) ->
            if Hashtbl.mem seen n.Node.id then false
            else (Hashtbl.add seen n.Node.id (); true))
          next
      in
      eval_path root next rest

  let select (d : Doc.t) (p : Ast.path) =
    let root = d.Doc.root in
    match p.Ast.steps with
    | [] -> if p.Ast.absolute then [ root ] else []
    | first :: rest ->
      if not p.Ast.absolute then eval_path root [ root ] p.Ast.steps
      else (
        match first.Ast.axis with
        | Ast.Child ->
          if
            node_test first.Ast.test root
            && List.for_all
                 (fun p -> eval_pred root root p [ root ])
                 first.Ast.preds
          then eval_path root [ root ] rest
          else []
        | Ast.Descendant ->
          let cands = root :: descendants root in
          let matched = List.filter (node_test first.Ast.test) cands in
          let matched =
            List.filter
              (fun n ->
                List.for_all (fun p -> eval_pred root n p matched) first.Ast.preds)
              matched
          in
          eval_path root matched rest
        | Ast.Parent -> []
        | Ast.Self -> eval_path root [ root ] rest)
end

let gen_step_name =
  QCheck.Gen.oneofl
    [ "site"; "people"; "person"; "name"; "city"; "regions"; "europe"; "asia";
      "item"; "price"; "*"; "@id" ]

let gen_random_path =
  QCheck.Gen.(
    let* n_steps = 1 -- 4 in
    let* steps =
      flatten_l
        (List.init n_steps (fun _ ->
             let* name = gen_step_name in
             let* desc = bool in
             let* pred =
               oneofl
                 [ []; [ Ast.Pos 1 ]; [ Ast.Last ];
                   [ Ast.Exists (Ast.path ~absolute:false [ Ast.step "name" ]) ];
                   [ Ast.Eq (Ast.path ~absolute:false [ Ast.step "price" ], "10.30") ];
                   [ Ast.Neq (Ast.path ~absolute:false [ Ast.step "price" ], "10.30") ];
                   [ Ast.And
                       ( Ast.Exists (Ast.path ~absolute:false [ Ast.step "name" ]),
                         Ast.Neq
                           (Ast.path ~absolute:false [ Ast.step "price" ], "9.90") ) ];
                   [ Ast.Or
                       ( Ast.Eq (Ast.path ~absolute:false [ Ast.step "price" ], "10.30"),
                         Ast.Exists (Ast.path ~absolute:false [ Ast.step "city" ]) ) ] ]
             in
             return
               { (Ast.step name) with
                 Ast.axis = (if desc then Ast.Descendant else Ast.Child);
                 preds = pred }))
    in
    let* absolute = bool in
    return { Ast.absolute; steps })

let prop_eval_matches_oracle =
  QCheck.Test.make ~name:"Eval agrees with a naive reference evaluator"
    ~count:500 (QCheck.make ~print:Ast.to_string gen_random_path)
    (fun path ->
      let ids l = List.sort compare (List.map (fun (n : Node.t) -> n.Node.id) l) in
      ids (Eval.select doc path) = ids (Oracle.select doc path))

(* --- streaming vs list-based evaluation ------------------------------------ *)

let xmark =
  Dtx_xmark.Generator.generate (Dtx_xmark.Generator.params_of_mb ~seed:3 1.0)

(* Results in the same order, the same visit count (from [select_counted]
   and from [nodes_visited]) and the same number of distinct traced nodes. *)
let agrees_with_listwise d path =
  let ids l = List.map (fun (n : Node.t) -> n.Node.id) l in
  let results, visited = Eval.select_counted d path in
  ids results = ids (Listwise.select d path)
  && ids (Eval.select d path) = ids results
  && visited = Listwise.nodes_visited d path
  && Eval.nodes_visited d path = visited
  && Eval.distinct_visited d path
     = List.length (snd (Listwise.select_traced d path))

let rel ?(axis = Ast.Child) names =
  Ast.path ~absolute:false (List.map (fun n -> { (Ast.step n) with Ast.axis }) names)

let parent_step = { Ast.axis = Ast.Parent; test = Ast.Any; preds = [] }
let self_step = { Ast.axis = Ast.Self; test = Ast.Any; preds = [] }

(* Texts of element nodes with element children, so [=] and [!=] on them
   take the concatenating path of [text_content]. *)
let description_text =
  Node.text_content (List.hd (Listwise.select xmark (P.parse "//item/description")))

let mail_text =
  Node.text_content (List.hd (Listwise.select xmark (P.parse "//mailbox/mail")))

let xmark_bool_preds =
  [ Ast.Exists (rel [ "mail" ]);
    Ast.Exists (rel [ "mailbox"; "mail" ]);
    Ast.Exists (rel ~axis:Ast.Descendant [ "text" ]);
    Ast.Exists (Ast.path ~absolute:false [ parent_step; Ast.step "people" ]);
    Ast.Eq (rel [ "@id" ], "i1");
    Ast.Neq (rel [ "@id" ], "i0");
    Ast.Eq (rel [ "description" ], description_text);
    Ast.Neq (rel [ "description" ], description_text);
    Ast.Eq (rel [ "mail" ], mail_text);
    Ast.Neq (rel [ "mailbox" ], "");
    Ast.Eq (Ast.path ~absolute:false [ self_step ], description_text);
    Ast.And (Ast.Exists (rel [ "name" ]), Ast.Neq (rel [ "@id" ], "i2"));
    Ast.Or (Ast.Eq (rel [ "description" ], description_text), Ast.Exists (rel [ "mail" ])) ]

let gen_xmark_pred =
  QCheck.Gen.(
    frequency
      [ (3, oneofl xmark_bool_preds);
        (1, oneofl [ Ast.Pos 1; Ast.Pos 2; Ast.Last ]) ])

let gen_xmark_step =
  QCheck.Gen.(
    let* kind = 0 -- 9 in
    let* preds = 0 -- 2 >>= fun n -> list_repeat n gen_xmark_pred in
    match kind with
    | 0 -> return { parent_step with Ast.preds }
    | 1 -> return { self_step with Ast.preds }
    | _ ->
      let* name =
        oneofl
          [ "site"; "regions"; "asia"; "europe"; "item"; "name"; "description";
            "text"; "mailbox"; "mail"; "people"; "person"; "open_auctions";
            "open_auction"; "bidder"; "*"; "@id" ]
      in
      let* desc = bool in
      return
        { (Ast.step name) with
          Ast.axis = (if desc then Ast.Descendant else Ast.Child);
          preds })

let gen_xmark_path =
  QCheck.Gen.(
    let* n_steps = 1 -- 5 in
    let* steps = list_repeat n_steps gen_xmark_step in
    let* absolute = bool in
    return { Ast.absolute; steps })

let prop_streaming_matches_listwise_shop =
  QCheck.Test.make ~name:"streaming = list-based evaluator (shop)" ~count:300
    (QCheck.make ~print:Ast.to_string gen_random_path)
    (agrees_with_listwise doc)

let prop_streaming_matches_listwise_xmark =
  QCheck.Test.make ~name:"streaming = list-based evaluator (XMark)" ~count:500
    (QCheck.make ~print:Ast.to_string gen_xmark_path)
    (agrees_with_listwise xmark)

(* Each shape the streaming evaluator treats specially, named so that a
   counting drift points at its cause. *)
let test_streaming_directed () =
  List.iter
    (fun text ->
      checkb text true (agrees_with_listwise xmark (P.parse text)))
    [ (* parent axis: several children share one parent *)
      "//item/*/..";
      "//person/*/../..";
      "/site/regions/*/item/..";
      (* descendant axis over several, nested contexts *)
      "//regions//item//text";
      "//*//name";
      "//item//*[1]";
      "//mailbox/..//text";
      (* mixed positional and boolean predicates *)
      "//item[mailbox/mail][1]";
      "/site/regions/*/item[2][@id != \"i0\"]";
      "//person[name][last()]/name";
      "//item[last()][description != \"x\" or mailbox]";
      (* = and != on elements with element children *)
      Printf.sprintf "//item[description = %S]" description_text;
      Printf.sprintf "//mailbox[mail != %S]" mail_text;
      Printf.sprintf "//item[mailbox/mail = %S]/name" mail_text;
      (* leading steps the evaluator starts specially *)
      "/site[1]/regions";
      "/./regions";
      "/..";
      "//site";
      "people/person" ]

let () =
  Alcotest.run "xpath"
    [ ( "parser",
        [ Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "descendant+wildcard" `Quick test_parse_descendant_wildcard;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "relative" `Quick test_parse_relative;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_roundtrip_to_string ] );
      ( "eval",
        [ Alcotest.test_case "child chain" `Quick test_select_child_chain;
          Alcotest.test_case "descendant" `Quick test_select_descendant;
          Alcotest.test_case "wildcard" `Quick test_select_wildcard;
          Alcotest.test_case "wildcard skips attrs" `Quick test_wildcard_excludes_attributes;
          Alcotest.test_case "attribute step" `Quick test_attribute_step;
          Alcotest.test_case "eq predicate" `Quick test_eq_predicate;
          Alcotest.test_case "exists predicate" `Quick test_exists_predicate;
          Alcotest.test_case "positional predicate" `Quick test_positional_predicate;
          Alcotest.test_case "no duplicates" `Quick test_no_duplicates;
          Alcotest.test_case "select_from" `Quick test_select_from_relative;
          Alcotest.test_case "matches" `Quick test_matches;
          Alcotest.test_case "visit counting" `Quick test_nodes_visited_positive;
          Alcotest.test_case "traced" `Quick test_select_traced;
          Alcotest.test_case "parent axis" `Quick test_parent_axis;
          Alcotest.test_case "self axis" `Quick test_self_axis;
          Alcotest.test_case "last()" `Quick test_last_predicate;
          Alcotest.test_case "../. roundtrip" `Quick test_parent_to_string_roundtrip;
          Alcotest.test_case "boolean predicates" `Quick test_boolean_predicates;
          Alcotest.test_case "boolean roundtrip" `Quick test_boolean_to_string_roundtrip ] );
      ( "ast",
        [ Alcotest.test_case "predicate_paths" `Quick test_predicate_paths;
          QCheck_alcotest.to_alcotest prop_without_predicates_superset ] );
      ("oracle", [ QCheck_alcotest.to_alcotest prop_eval_matches_oracle ]);
      ( "stream",
        [ Alcotest.test_case "directed shapes" `Quick test_streaming_directed;
          QCheck_alcotest.to_alcotest prop_streaming_matches_listwise_shop;
          QCheck_alcotest.to_alcotest prop_streaming_matches_listwise_xmark ] ) ]
