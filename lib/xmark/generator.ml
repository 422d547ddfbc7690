module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Rng = Dtx_util.Rng

type params = {
  seed : int;
  items_per_region : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

let default_params =
  { seed = 42; items_per_region = 4; persons = 10; open_auctions = 6;
    closed_auctions = 4; categories = 3 }

let regions =
  [ "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" ]

(* Approximate node cost of each entity (measured against [generate]):
   item ≈ 13 (with its mailbox), person ≈ 17 (address, profile, watches),
   open_auction ≈ 24 (bidders, annotation, interval), closed_auction ≈ 13,
   category ≈ 5, fixed structure ≈ 10. Proportions loosely follow XMark's
   own entity mix. *)
let item_nodes = 13
let person_nodes = 17
let oa_nodes = 24
let ca_nodes = 13
let cat_nodes = 5
let fixed_nodes = 10

let params_of_nodes ?(seed = 42) target =
  if target < fixed_nodes then invalid_arg "Generator.params_of_nodes: too small";
  (* Weights: items 35%, persons 30%, open 20%, closed 10%, categories 5%. *)
  let budget = float_of_int (target - fixed_nodes) in
  let items_total = budget *. 0.35 /. float_of_int item_nodes in
  let items_per_region = max 1 (int_of_float (items_total /. 6.0)) in
  let persons = max 1 (int_of_float (budget *. 0.30 /. float_of_int person_nodes)) in
  let open_auctions = max 1 (int_of_float (budget *. 0.20 /. float_of_int oa_nodes)) in
  let closed_auctions = max 1 (int_of_float (budget *. 0.10 /. float_of_int ca_nodes)) in
  let categories = max 1 (int_of_float (budget *. 0.05 /. float_of_int cat_nodes)) in
  { seed; items_per_region; persons; open_auctions; closed_auctions; categories }

(* The paper-MB calibration: 1 MB ≈ 250 document nodes. *)
let nodes_per_mb = 250.0

let min_mb = float_of_int fixed_nodes /. nodes_per_mb

let params_of_mb ?seed mb =
  params_of_nodes ?seed (int_of_float (nodes_per_mb *. mb))

let first_names =
  [| "Ana"; "Bruno"; "Carla"; "Davi"; "Edna"; "Fabio"; "Gina"; "Hugo";
     "Iris"; "Joao"; "Katia"; "Luis"; "Mara"; "Nilo"; "Olga"; "Paulo";
     "Rita"; "Saulo"; "Tania"; "Ueda"; "Vera"; "Wagner"; "Xena"; "Yuri" |]

let last_names =
  [| "Silva"; "Souza"; "Moreira"; "Machado"; "Costa"; "Lima"; "Alves";
     "Rocha"; "Dias"; "Pinto"; "Ramos"; "Freitas"; "Barros"; "Teixeira" |]

let cities =
  [| "Fortaleza"; "Recife"; "Natal"; "Salvador"; "Belem"; "Manaus";
     "Curitiba"; "Porto Alegre"; "Campinas"; "Sao Luis" |]

let words =
  [| "vintage"; "rare"; "boxed"; "mint"; "classic"; "signed"; "limited";
     "antique"; "restored"; "original"; "handmade"; "imported" |]

let goods =
  [| "mouse"; "keyboard"; "monitor"; "camera"; "lens"; "guitar"; "amp";
     "watch"; "book"; "lamp"; "radio"; "bicycle"; "printer"; "tablet" |]

let money rng = Printf.sprintf "%d.%02d" (Rng.int_in rng 1 500) (Rng.int rng 100)

let date rng =
  Printf.sprintf "%02d/%02d/%04d" (Rng.int_in rng 1 12) (Rng.int_in rng 1 28)
    (Rng.int_in rng 1999 2009)

let add doc parent label ?text () =
  let n = Doc.fresh_node doc ~label ?text () in
  Node.add_child parent n;
  n

let add_attr doc parent name value =
  ignore (add doc parent ("@" ^ name) ~text:value ())

let gen_item doc parent rng ~id ~category_count =
  let item = add doc parent "item" () in
  add_attr doc item "id" (Printf.sprintf "i%d" id);
  ignore
    (add doc item "name"
       ~text:
         (Printf.sprintf "%s %s" (Rng.pick rng words) (Rng.pick rng goods))
       ());
  ignore (add doc item "location" ~text:(Rng.pick rng cities) ());
  ignore (add doc item "quantity" ~text:(string_of_int (Rng.int_in rng 1 9)) ());
  ignore (add doc item "payment" ~text:"Creditcard" ());
  let desc = add doc item "description" () in
  ignore
    (add doc desc "text"
       ~text:(Printf.sprintf "%s %s %s" (Rng.pick rng words) (Rng.pick rng words)
                (Rng.pick rng goods))
       ());
  ignore
    (add doc item "incategory"
       ~text:(Printf.sprintf "c%d" (Rng.int rng (max 1 category_count)))
       ());
  (* XMark items carry a mailbox of seller/buyer correspondence. *)
  let mailbox = add doc item "mailbox" () in
  if Rng.bool rng then begin
    let mail = add doc mailbox "mail" () in
    ignore
      (add doc mail "from"
         ~text:(Printf.sprintf "%s %s" (Rng.pick rng first_names) (Rng.pick rng last_names))
         ());
    ignore
      (add doc mail "to"
         ~text:(Printf.sprintf "%s %s" (Rng.pick rng first_names) (Rng.pick rng last_names))
         ());
    ignore (add doc mail "date" ~text:(date rng) ());
    ignore
      (add doc mail "text"
         ~text:(Printf.sprintf "is the %s still %s?" (Rng.pick rng goods) (Rng.pick rng words))
         ())
  end

let gen_person doc parent rng ~id =
  let p = add doc parent "person" () in
  add_attr doc p "id" (Printf.sprintf "p%d" id);
  ignore
    (add doc p "name"
       ~text:
         (Printf.sprintf "%s %s" (Rng.pick rng first_names)
            (Rng.pick rng last_names))
       ());
  ignore
    (add doc p "emailaddress"
       ~text:(Printf.sprintf "mailto:user%d@auctions.example" id)
       ());
  ignore
    (add doc p "phone"
       ~text:(Printf.sprintf "+55 (%d) %07d" (Rng.int_in rng 11 99)
                (Rng.int rng 10_000_000))
       ());
  let addr = add doc p "address" () in
  ignore
    (add doc addr "street"
       ~text:(Printf.sprintf "%d %s St" (Rng.int_in rng 1 999) (Rng.pick rng last_names))
       ());
  ignore (add doc addr "city" ~text:(Rng.pick rng cities) ());
  ignore (add doc addr "country" ~text:"Brazil" ());
  ignore (add doc addr "zipcode" ~text:(string_of_int (Rng.int rng 99999)) ());
  ignore
    (add doc p "creditcard"
       ~text:
         (Printf.sprintf "%04d %04d %04d %04d" (Rng.int rng 10000)
            (Rng.int rng 10000) (Rng.int rng 10000) (Rng.int rng 10000))
       ());
  ignore
    (add doc p "homepage"
       ~text:(Printf.sprintf "http://auctions.example/~user%d" id)
       ());
  let profile = add doc p "profile" () in
  ignore (add doc profile "interest" ~text:(Rng.pick rng goods) ());
  ignore (add doc profile "income" ~text:(money rng) ());
  let watches = add doc p "watches" () in
  for _ = 1 to Rng.int rng 3 do
    let w = add doc watches "watch" () in
    add_attr doc w "open_auction" (Printf.sprintf "oa%d" (Rng.int rng 16))
  done

let gen_bidder doc parent rng ~persons =
  let b = add doc parent "bidder" () in
  ignore (add doc b "date" ~text:(date rng) ());
  ignore (add doc b "time" ~text:(Printf.sprintf "%02d:%02d:%02d" (Rng.int rng 24) (Rng.int rng 60) (Rng.int rng 60)) ());
  ignore
    (add doc b "personref"
       ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons)))
       ());
  ignore (add doc b "increase" ~text:(money rng) ())

let gen_open_auction doc parent rng ~id ~persons ~items =
  let oa = add doc parent "open_auction" () in
  add_attr doc oa "id" (Printf.sprintf "oa%d" id);
  ignore (add doc oa "initial" ~text:(money rng) ());
  let n_bidders = Rng.int_in rng 1 3 in
  for _ = 1 to n_bidders do gen_bidder doc oa rng ~persons done;
  ignore (add doc oa "current" ~text:(money rng) ());
  ignore
    (add doc oa "itemref" ~text:(Printf.sprintf "i%d" (Rng.int rng (max 1 items))) ());
  ignore
    (add doc oa "seller" ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons))) ());
  ignore (add doc oa "quantity" ~text:(string_of_int (Rng.int_in rng 1 5)) ());
  ignore (add doc oa "type" ~text:(if Rng.bool rng then "Regular" else "Featured") ());
  let annotation = add doc oa "annotation" () in
  ignore
    (add doc annotation "author"
       ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons)))
       ());
  let adesc = add doc annotation "description" () in
  ignore
    (add doc adesc "text"
       ~text:(Printf.sprintf "%s %s, %s" (Rng.pick rng words) (Rng.pick rng goods)
                (Rng.pick rng words))
       ());
  let interval = add doc oa "interval" () in
  ignore (add doc interval "start" ~text:(date rng) ());
  ignore (add doc interval "end" ~text:(date rng) ())

let gen_closed_auction doc parent rng ~id ~persons ~items =
  let ca = add doc parent "closed_auction" () in
  add_attr doc ca "id" (Printf.sprintf "ca%d" id);
  ignore
    (add doc ca "seller" ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons))) ());
  ignore
    (add doc ca "buyer" ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons))) ());
  ignore
    (add doc ca "itemref" ~text:(Printf.sprintf "i%d" (Rng.int rng (max 1 items))) ());
  ignore (add doc ca "price" ~text:(money rng) ());
  ignore (add doc ca "date" ~text:(date rng) ());
  ignore (add doc ca "quantity" ~text:(string_of_int (Rng.int_in rng 1 5)) ());
  ignore (add doc ca "type" ~text:"Regular" ());
  let annotation = add doc ca "annotation" () in
  ignore
    (add doc annotation "author"
       ~text:(Printf.sprintf "p%d" (Rng.int rng (max 1 persons)))
       ())

let generate ?(name = "xmark") (p : params) =
  let rng = Rng.create p.seed in
  let doc = Doc.create ~name ~root_label:"site" in
  let root = doc.Doc.root in
  let total_items = p.items_per_region * 6 in
  (* regions *)
  let regions_el = add doc root "regions" () in
  let item_id = ref 0 in
  List.iter
    (fun region ->
      let r = add doc regions_el region () in
      for _ = 1 to p.items_per_region do
        gen_item doc r rng ~id:!item_id ~category_count:p.categories;
        incr item_id
      done)
    regions;
  (* categories *)
  let cats = add doc root "categories" () in
  for i = 0 to p.categories - 1 do
    let c = add doc cats "category" () in
    add_attr doc c "id" (Printf.sprintf "c%d" i);
    ignore
      (add doc c "name"
         ~text:(Printf.sprintf "%s %s" (Rng.pick rng words) (Rng.pick rng goods))
         ());
    let cdesc = add doc c "description" () in
    ignore
      (add doc cdesc "text"
         ~text:(Printf.sprintf "everything %s about %s" (Rng.pick rng words)
                  (Rng.pick rng goods))
         ())
  done;
  (* catgraph *)
  let catgraph = add doc root "catgraph" () in
  for _ = 1 to max 1 (p.categories - 1) do
    let e = add doc catgraph "edge" () in
    add_attr doc e "from" (Printf.sprintf "c%d" (Rng.int rng (max 1 p.categories)));
    add_attr doc e "to" (Printf.sprintf "c%d" (Rng.int rng (max 1 p.categories)))
  done;
  (* people *)
  let people = add doc root "people" () in
  for i = 0 to p.persons - 1 do
    gen_person doc people rng ~id:i
  done;
  (* open auctions *)
  let oas = add doc root "open_auctions" () in
  for i = 0 to p.open_auctions - 1 do
    gen_open_auction doc oas rng ~id:i ~persons:p.persons ~items:total_items
  done;
  (* closed auctions *)
  let cas = add doc root "closed_auctions" () in
  for i = 0 to p.closed_auctions - 1 do
    gen_closed_auction doc cas rng ~id:i ~persons:p.persons ~items:total_items
  done;
  doc

let ids_of_label (doc : Doc.t) label =
  Node.fold
    (fun acc n ->
      if n.Node.label = label then
        match Node.attribute n "id" with Some v -> v :: acc | None -> acc
      else acc)
    [] doc.Doc.root
  |> List.rev

let person_ids doc = ids_of_label doc "person"

let item_ids doc = ids_of_label doc "item"

let open_auction_ids doc = ids_of_label doc "open_auction"
