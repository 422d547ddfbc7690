module Dg = Dtx_dataguide.Dataguide
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Ast = Dtx_xpath.Ast
module Eval = Dtx_xpath.Eval
module Op = Dtx_update.Op
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table

let frag_root_label fragment =
  let n = String.length fragment in
  let rec find_lt i = if i >= n then None else if fragment.[i] = '<' then Some (i + 1) else find_lt (i + 1) in
  match find_lt 0 with
  | None -> None
  | Some start ->
    let is_name_char c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_' || c = '-' || c = '.' || c = ':'
    in
    let rec stop i = if i < n && is_name_char fragment.[i] then stop (i + 1) else i in
    let e = stop start in
    if e = start then None else Some (String.sub fragment start (e - start))

type 'n view = {
  doc : string;
  id : 'n -> int;
  label : 'n -> string;
  select : Ast.path -> 'n list;
  ancestors : 'n -> 'n list;
  parent : 'n -> 'n option;
  subtree : 'n -> 'n list;
  landing : ('n -> string -> 'n) option;
}

let guide_view (dg : Dg.t) =
  {
    doc = dg.Dg.doc_name;
    id = (fun n -> n.Dg.dg_id);
    label = (fun n -> n.Dg.label);
    select = Dg.match_path dg;
    ancestors = Dg.ancestors;
    parent = (fun n -> n.Dg.parent);
    subtree = Dg.descendants_or_self;
    landing =
      Some
        (fun connect label ->
          Dg.ensure_path dg (Dg.label_path connect @ [ label ]));
  }

let instance_view (doc : Doc.t) =
  {
    doc = doc.Doc.name;
    id = (fun n -> n.Node.id);
    label = (fun n -> n.Node.label);
    select = Eval.select doc;
    ancestors = Node.ancestors;
    parent = (fun n -> n.Node.parent);
    subtree = Node.descendant_or_self;
    landing = None;
  }

let res v n = Table.resource v.doc (v.id n)

let with_ancestors v mode n =
  let up = Mode.intention_for mode in
  (res v n, mode) :: List.map (fun a -> (res v a, up)) (v.ancestors n)

let reads v p = List.concat_map (with_ancestors v Mode.ST) (v.select p)

let concat_path (prefix : Ast.path) (rel : Ast.path) =
  { Ast.absolute = prefix.Ast.absolute; steps = prefix.Ast.steps @ rel.Ast.steps }

(* ST on every node a predicate can read, IS above. *)
let predicate_locks v (p : Ast.path) =
  List.concat_map
    (fun (prefix, rel) ->
      reads v (Ast.without_predicates (concat_path prefix rel)))
    (Ast.predicate_paths p)

let connects v (pos : Op.position) p =
  let targets = v.select p in
  match pos with
  | Op.Into -> targets
  | Op.After | Op.Before ->
    List.map (fun n -> Option.value (v.parent n) ~default:n) targets

(* The nodes new content lands on, [f landing]; none in a view without
   landings. [requests] lands everything before it derives predicate locks:
   the guide view's [ensure_path] hands out ids in call order, and a
   predicate path may select a node a landing just created. *)
let landed v f = match v.landing with None -> [] | Some landing -> f landing

let insert_mode = function
  | Op.Into -> Mode.SI
  | Op.After -> Mode.SA
  | Op.Before -> Mode.SB

let requests v (op : Op.t) =
  let all mode ns = List.concat_map (with_ancestors v mode) ns in
  let locks =
    match op with
    | Op.Query p -> reads v p
    | Op.Insert { target; pos; fragment } ->
      let cs = connects v pos target in
      let fresh =
        landed v (fun put ->
            match frag_root_label fragment with
            | None -> []
            | Some l -> List.map (fun c -> put c l) cs)
      in
      all Mode.X fresh @ all (insert_mode pos) cs
    | Op.Remove p -> all Mode.XT (v.select p)
    | Op.Rename { target; new_label } ->
      let tnodes = v.select target in
      let fresh =
        landed v (fun put ->
            List.filter_map
              (fun n -> Option.map (fun p -> put p new_label) (v.parent n))
              tnodes)
      in
      all Mode.XT tnodes @ all Mode.X fresh
    | Op.Change { target; _ } -> all Mode.X (v.select target)
    | Op.Transpose { source; dest } ->
      let snodes = v.select source in
      let dnodes = v.select dest in
      let fresh =
        landed v (fun put ->
            List.concat_map
              (fun s -> List.map (fun d -> put d (v.label s)) dnodes)
              snodes)
      in
      all Mode.XT snodes @ all Mode.SI dnodes @ all Mode.X fresh
  in
  (* Predicates are read after every landing is in place. *)
  let preds = List.concat_map (predicate_locks v) (Op.paths op) in
  Table.dedup_requests (locks @ preds)
