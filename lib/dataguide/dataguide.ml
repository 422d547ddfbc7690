module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Ast = Dtx_xpath.Ast

type node = {
  dg_id : int;
  label : string;
  parent : node option;
  children : (string, node) Hashtbl.t;
  mutable target_count : int;
}

type t = {
  doc_name : string;
  root : node;
  by_id : (int, node) Hashtbl.t;
  mutable next_id : int;
  mutable version : int;
  mutable shape_version : int;
}

let version t = t.version
let shape_version t = t.shape_version

let new_node t ~label ~parent =
  let n =
    { dg_id = t.next_id; label; parent; children = Hashtbl.create 4; target_count = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.version <- t.version + 1;
  t.shape_version <- t.shape_version + 1;
  Hashtbl.replace t.by_id n.dg_id n;
  n

let create ~doc_name ~root_label =
  let t =
    { doc_name;
      root =
        { dg_id = 0; label = root_label; parent = None;
          children = Hashtbl.create 4; target_count = 0 };
      by_id = Hashtbl.create 64;
      next_id = 1;
      version = 0;
      shape_version = 0 }
  in
  Hashtbl.replace t.by_id 0 t.root;
  t

let size t = Hashtbl.length t.by_id

let find_path t labels =
  match labels with
  | [] -> None
  | first :: rest ->
    if first <> t.root.label then None
    else
      let rec walk node = function
        | [] -> Some node
        | l :: rest ->
          (match Hashtbl.find_opt node.children l with
           | Some c -> walk c rest
           | None -> None)
      in
      walk t.root rest

let ensure_path t labels =
  match labels with
  | [] -> invalid_arg "Dataguide.ensure_path: empty path"
  | first :: rest ->
    if first <> t.root.label then
      invalid_arg
        (Printf.sprintf "Dataguide.ensure_path: root label %s <> %s" first
           t.root.label);
    let rec walk node = function
      | [] -> node
      | l :: rest ->
        let child =
          match Hashtbl.find_opt node.children l with
          | Some c -> c
          | None ->
            let c = new_node t ~label:l ~parent:(Some node) in
            Hashtbl.replace node.children l c;
            c
        in
        walk child rest
    in
    walk t.root rest

let add_instance t labels =
  let n = ensure_path t labels in
  n.target_count <- n.target_count + 1;
  t.version <- t.version + 1;
  n

let remove_instance t labels =
  match find_path t labels with
  | None ->
    invalid_arg
      ("Dataguide.remove_instance: unknown path " ^ String.concat "/" labels)
  | Some n ->
    if n.target_count <= 0 then
      invalid_arg "Dataguide.remove_instance: count already zero";
    n.target_count <- n.target_count - 1;
    t.version <- t.version + 1

let add_subtree t (root : Node.t) =
  Node.iter (fun n -> ignore (add_instance t (Node.label_path n))) root

let build (doc : Doc.t) =
  let t = create ~doc_name:doc.Doc.name ~root_label:doc.Doc.root.Node.label in
  add_subtree t doc.Doc.root;
  t

let ancestors n =
  let rec loop n acc =
    match n.parent with None -> List.rev acc | Some p -> loop p (p :: acc)
  in
  loop n []

let descendants_or_self n =
  let rec walk n acc =
    let acc = n :: acc in
    Hashtbl.fold (fun _ c acc -> walk c acc) n.children acc
  in
  List.rev (walk n [])

let label_path n =
  let rec loop n acc =
    match n.parent with None -> n.label :: acc | Some p -> loop p (n.label :: acc)
  in
  loop n []

let children_list n = Hashtbl.fold (fun _ c acc -> c :: acc) n.children []

let test_matches (test : Ast.test) n =
  match test with
  | Ast.Name name -> n.label = name
  | Ast.Wildcard -> not (String.length n.label > 0 && n.label.[0] = '@')
  | Ast.Any -> true

let match_path t (p : Ast.path) =
  (* Structural matching over the trie; predicates are ignored here — the
     protocol derives predicate lock targets via Ast.predicate_paths. *)
  let step_candidates ~leading_absolute (axis : Ast.axis) ctx =
    match axis with
    | Ast.Child -> children_list ctx
    | Ast.Descendant ->
      if leading_absolute then descendants_or_self ctx
      else List.concat_map descendants_or_self (children_list ctx)
    | Ast.Parent -> (match ctx.parent with Some p -> [ p ] | None -> [])
    | Ast.Self -> [ ctx ]
  in
  let rec eval ~leading_absolute ctxs (steps : Ast.step list) =
    match steps with
    | [] -> ctxs
    | step :: rest ->
      let seen = Hashtbl.create 16 in
      let out = ref [] in
      List.iter
        (fun ctx ->
          let cands = step_candidates ~leading_absolute step.Ast.axis ctx in
          List.iter
            (fun n ->
              if test_matches step.Ast.test n && not (Hashtbl.mem seen n.dg_id)
              then begin
                Hashtbl.add seen n.dg_id ();
                out := n :: !out
              end)
            cands)
        ctxs;
      eval ~leading_absolute:false (List.rev !out) rest
  in
  match p.Ast.steps with
  | [] -> if p.Ast.absolute then [ t.root ] else []
  | first :: rest ->
    if p.Ast.absolute then
      match first.Ast.axis with
      | Ast.Child ->
        if test_matches first.Ast.test t.root then
          eval ~leading_absolute:false [ t.root ] rest
        else []
      | Ast.Descendant -> eval ~leading_absolute:true [ t.root ] p.Ast.steps
      | Ast.Parent ->
        (* The (virtual) document node has no parent. *)
        []
      | Ast.Self -> eval ~leading_absolute:false [ t.root ] rest
    else
      (* Relative paths are resolved from the root element's children, the
         same convention as Dtx_xpath.Eval.select. *)
      eval ~leading_absolute:false [ t.root ] p.Ast.steps

let validate t (doc : Doc.t) =
  (* Recompute expected counts from the document and compare. *)
  let expected = Hashtbl.create 256 in
  Node.iter
    (fun n ->
      let key = String.concat "\x00" (Node.label_path n) in
      let cur = match Hashtbl.find_opt expected key with Some c -> c | None -> 0 in
      Hashtbl.replace expected key (cur + 1))
    doc.Doc.root;
  let error = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt
  in
  let rec check n =
    let key = String.concat "\x00" (label_path n) in
    let want = match Hashtbl.find_opt expected key with Some c -> c | None -> 0 in
    if n.target_count <> want then
      fail "path %s: count %d, document has %d"
        (String.concat "/" (label_path n))
        n.target_count want;
    Hashtbl.remove expected key;
    Hashtbl.iter (fun _ c -> check c) n.children
  in
  check t.root;
  Hashtbl.iter
    (fun key count ->
      if count > 0 then
        fail "document path %s (count %d) missing from DataGuide"
          (String.concat "/" (String.split_on_char '\x00' key))
          count)
    expected;
  match !error with None -> Ok () | Some e -> Error e

let pp ppf t =
  let rec go indent n =
    Format.fprintf ppf "%s%s #%d (x%d)@." indent n.label n.dg_id n.target_count;
    let kids =
      children_list n |> List.sort (fun a b -> compare a.label b.label)
    in
    List.iter (go (indent ^ "  ")) kids
  in
  go "" t.root
