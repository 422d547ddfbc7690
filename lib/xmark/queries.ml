module Rng = Dtx_util.Rng
module Doc = Dtx_xml.Doc
module Node = Dtx_xml.Node
module Op = Dtx_update.Op
module Xparser = Dtx_xpath.Parser

let adapted_queries =
  [ ("Q1-person-by-id", "/site/people/person[@id = \"p0\"]/name");
    ("Q2-first-bidder-increase", "/site/open_auctions/open_auction[1]/bidder[1]/increase");
    ("Q3-all-item-names", "/site/regions/*/item/name");
    ("Q4-closed-prices", "/site/closed_auctions/closed_auction/price");
    ("Q5-category-names", "/site/categories/category/name");
    ("Q6-region-items", "/site/regions/europe/item");
    ("Q7-all-descr", "//item/description");
    ("Q8-person-cities", "/site/people/person/address/city");
    ("Q9-auction-current", "/site/open_auctions/open_auction/current");
    ("Q10-sellers", "//open_auction/seller");
    ("Q11-last-auction", "/site/open_auctions/open_auction[last()]/seller");
    ("Q12-bid-parents", "//open_auction/bidder/..");
    ("Q13-typed-sellers",
     "/site/open_auctions/open_auction[type = \"Featured\" or type = \"Regular\"]/seller");
    ("Q14-bulk-items", "/site/regions/*/item[name and quantity != \"1\"]/name") ]

(* Generated fragments never change (sites clone them), so one walk per
   fragment serves every generated operation. *)
type pools = {
  persons : string array;
  items : string array;
  auctions : string array;
  regions : string array;
}

let pools (doc : Doc.t) =
  let persons = ref [] and items = ref [] and auctions = ref [] in
  let regions = ref [] in
  let add_id acc n =
    match Node.attribute n "id" with Some v -> acc := v :: !acc | None -> ()
  in
  Node.iter
    (fun n ->
      match n.Node.label with
      | "person" -> add_id persons n
      | "item" -> add_id items n
      | "open_auction" -> add_id auctions n
      | l ->
        if
          List.mem l Generator.regions
          && (match n.Node.parent with
              | Some p -> p.Node.label = "regions"
              | None -> false)
        then regions := l :: !regions)
    doc.Doc.root;
  let arr r = Array.of_list (List.rev !r) in
  { persons = arr persons;
    items = arr items;
    auctions = arr auctions;
    regions = arr regions }

let region_names = Array.of_list Generator.regions

let pick_id rng ids fallback =
  if ids = [||] then fallback else Rng.pick rng ids

let parse_exn s =
  (* Templates are static or built from known-safe ids; a parse failure is a
     programming error, not input. *)
  try Xparser.parse s
  with Xparser.Parse_error (msg, _) ->
    invalid_arg (Printf.sprintf "Queries: bad template %S (%s)" s msg)

let gen_query rng (pl : pools) =
  let choice = Rng.int rng 12 in
  let path_text =
    match choice with
    | 8 ->
      (* sellers of the last listed auction *)
      "/site/open_auctions/open_auction[last()]/seller"
    | 9 ->
      (* items that have a bid trail: navigate down then back up *)
      Printf.sprintf "//open_auction[@id = \"%s\"]/bidder/.."
        (pick_id rng pl.auctions "oa0")
    | 10 ->
      (* disjunctive predicate over auction types *)
      "/site/open_auctions/open_auction[type = \"Featured\" or type = \"Regular\"]/seller"
    | 11 ->
      (* conjunction with inequality: multi-quantity items *)
      "/site/regions/*/item[name and quantity != \"1\"]/name"
    | 0 ->
      Printf.sprintf "/site/people/person[@id = \"%s\"]/name"
        (pick_id rng pl.persons "p0")
    | 1 ->
      Printf.sprintf "//item[@id = \"%s\"]" (pick_id rng pl.items "i0")
    | 2 -> "/site/regions/*/item/name"
    | 3 ->
      Printf.sprintf "/site/open_auctions/open_auction[@id = \"%s\"]/current"
        (pick_id rng pl.auctions "oa0")
    | 4 -> "/site/closed_auctions/closed_auction/price"
    | 5 ->
      Printf.sprintf "/site/regions/%s/item" (Rng.pick rng region_names)
    | 6 -> "/site/people/person/address/city"
    | _ -> "/site/categories/category/name"
  in
  Op.Query (parse_exn path_text)

let gen_update rng ~fresh (pl : pools) =
  (* Each generator is offered only when the fragment holds the data it
     needs, so generated transactions fail only through real concurrency
     (an entity a concurrent transaction removed), not by construction. *)
  let insert_item () =
    let id = fresh () in
    Op.Insert
      { target =
          parse_exn (Printf.sprintf "/site/regions/%s" (Rng.pick rng pl.regions));
        pos = Op.Into;
        fragment =
          Printf.sprintf
            "<item id=\"ni%d\"><name>new item %d</name><quantity>1</quantity></item>"
            id id }
  in
  let insert_person () =
    let id = fresh () in
    Op.Insert
      { target = parse_exn "/site/people";
        pos = Op.Into;
        fragment =
          Printf.sprintf
            "<person id=\"np%d\"><name>New Person %d</name><emailaddress>mailto:np%d@auctions.example</emailaddress></person>"
            id id id }
  in
  let insert_bid () =
    Op.Insert
      { target =
          parse_exn
            (Printf.sprintf "/site/open_auctions/open_auction[@id = \"%s\"]"
               (pick_id rng pl.auctions "oa0"));
        pos = Op.Into;
        fragment =
          Printf.sprintf
            "<bidder><date>01/07/2009</date><personref>%s</personref><increase>%d.00</increase></bidder>"
            (pick_id rng pl.persons "p0") (1 + Rng.int rng 50) }
  in
  let change_price () =
    Op.Change
      { target =
          parse_exn
            (Printf.sprintf "/site/open_auctions/open_auction[@id = \"%s\"]/current"
               (pick_id rng pl.auctions "oa0"));
        new_text = Printf.sprintf "%d.%02d" (1 + Rng.int rng 400) (Rng.int rng 100) }
  in
  let change_quantity () =
    Op.Change
      { target =
          parse_exn
            (Printf.sprintf "//item[@id = \"%s\"]/quantity" (pick_id rng pl.items "i0"));
        new_text = string_of_int (1 + Rng.int rng 9) }
  in
  let remove_item () =
    Op.Remove
      (parse_exn (Printf.sprintf "//item[@id = \"%s\"]" (pick_id rng pl.items "i0")))
  in
  let move_item () =
    Op.Transpose
      { source =
          parse_exn (Printf.sprintf "//item[@id = \"%s\"]" (pick_id rng pl.items "i0"));
        dest =
          parse_exn (Printf.sprintf "/site/regions/%s" (Rng.pick rng pl.regions)) }
  in
  (* Weights follow the paper's scenario bias towards insertions. *)
  let feasible =
    (if pl.regions <> [||] then [ insert_item; insert_item ] else [])
    @ [ insert_person; insert_person ]
    @ (if pl.auctions <> [||] then [ insert_bid; change_price; change_price ]
       else [])
    @ (if pl.items <> [||] then [ change_quantity; remove_item ] else [])
    @ if pl.items <> [||] && pl.regions <> [||] then [ move_item ] else []
  in
  (Rng.pick_list rng feasible) ()
