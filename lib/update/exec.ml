module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Xml_parser = Dtx_xml.Parser
module Eval = Dtx_xpath.Eval
module Ast = Dtx_xpath.Ast

type dg_delta = Dg_add of string list | Dg_remove of string list

type undo_entry =
  | Undo_insert of int
  | Undo_remove of { parent : int; index : int; subtree : Node.t }
  | Undo_rename of { node : int; old_label : string }
  | Undo_change of { node : int; old_text : string option }
  | Undo_transpose of { node : int; old_parent : int; old_index : int }

type effect = {
  undo : undo_entry list;
  dg : dg_delta list;
  touched : int;
  result_count : int;
}

type error = Target_not_found of string | Invalid_op of string

let error_to_string = function
  | Target_not_found p -> "target not found: " ^ p
  | Invalid_op m -> "invalid operation: " ^ m

let subtree_paths n =
  List.rev (Node.fold (fun acc x -> Node.label_path x :: acc) [] n)

let dg_adds n = List.map (fun p -> Dg_add p) (subtree_paths n)

let dg_removes n = List.map (fun p -> Dg_remove p) (subtree_paths n)

let attached_to_root (doc : Doc.t) (n : Node.t) =
  let rec up (m : Node.t) =
    if m == doc.Doc.root then true
    else match m.Node.parent with Some p -> up p | None -> false
  in
  up n

let is_ancestor_of ~(anc : Node.t) (n : Node.t) =
  let rec up (m : Node.t) =
    if m == anc then true
    else match m.Node.parent with Some p -> up p | None -> false
  in
  up n

let apply (doc : Doc.t) (op : Op.t) : (effect, error) result =
  match op with
  | Op.Query path ->
    let nodes, visited = Eval.select_counted doc path in
    Ok
      { undo = [];
        dg = [];
        touched = visited;
        result_count = List.length nodes }
  | Op.Insert { target; pos; fragment } -> (
    let targets, visited = Eval.select_counted doc target in
    if targets = [] then Error (Target_not_found (Ast.to_string target))
    else
      match Xml_parser.parse_fragment fragment with
      | exception Xml_parser.Parse_error (msg, _) ->
        Error (Invalid_op ("bad fragment: " ^ msg))
      | frag_doc ->
        let template = frag_doc.Doc.root in
        let undo = ref [] in
        let dg = ref [] in
        let touched = ref visited in
        let insert_one (t : Node.t) =
          let copy = Node.clone ~alloc:(fun () -> Doc.alloc_id doc) template in
          Doc.register_subtree doc copy;
          (match pos with
           | Op.Into -> Node.add_child t copy
           | Op.After | Op.Before -> (
             match t.Node.parent with
             | None ->
               (* Cannot create a sibling of the root; treat as Into. *)
               Node.add_child t copy
             | Some p ->
               let idx = Node.child_index t in
               let at = match pos with Op.Before -> idx | _ -> idx + 1 in
               Node.insert_child p ~at copy));
          undo := Undo_insert copy.Node.id :: !undo;
          dg := !dg @ dg_adds copy;
          touched := !touched + Node.subtree_size copy
        in
        List.iter insert_one targets;
        Ok
          { undo = !undo;
            dg = !dg;
            touched = !touched;
            result_count = List.length targets })
  | Op.Remove path ->
    let targets, visited = Eval.select_counted doc path in
    if targets = [] then Error (Target_not_found (Ast.to_string path))
    else if List.exists (fun n -> n == doc.Doc.root) targets then
      Error (Invalid_op "cannot remove the document root")
    else begin
      let undo = ref [] in
      let dg = ref [] in
      let touched = ref visited in
      List.iter
        (fun (n : Node.t) ->
          (* An earlier target may have carried this node away already. *)
          if attached_to_root doc n then begin
            let parent =
              match n.Node.parent with Some p -> p.Node.id | None -> assert false
            in
            (* Record DataGuide paths before detaching (they need the full
               root-anchored prefix). *)
            dg := !dg @ dg_removes n;
            touched := !touched + Node.subtree_size n;
            let index = Node.detach n in
            Doc.unregister_subtree doc n;
            undo := Undo_remove { parent; index; subtree = n } :: !undo
          end)
        targets;
      Ok
        { undo = !undo;
          dg = !dg;
          touched = !touched;
          result_count = List.length !undo }
    end
  | Op.Rename { target; new_label } ->
    let targets, visited = Eval.select_counted doc target in
    if targets = [] then Error (Target_not_found (Ast.to_string target))
    else begin
      let undo = ref [] in
      let dg = ref [] in
      let touched = ref visited in
      List.iter
        (fun (n : Node.t) ->
          if n.Node.label <> new_label then begin
            (* The node's label participates in every descendant's label
               path, so the whole subtree moves in the DataGuide. *)
            dg := !dg @ dg_removes n;
            undo := Undo_rename { node = n.Node.id; old_label = n.Node.label } :: !undo;
            n.Node.label <- new_label;
            dg := !dg @ dg_adds n;
            touched := !touched + 1
          end)
        targets;
      Ok
        { undo = !undo;
          dg = !dg;
          touched = !touched;
          result_count = List.length targets }
    end
  | Op.Change { target; new_text } ->
    let targets, visited = Eval.select_counted doc target in
    if targets = [] then Error (Target_not_found (Ast.to_string target))
    else begin
      let undo = ref [] in
      List.iter
        (fun (n : Node.t) ->
          undo := Undo_change { node = n.Node.id; old_text = n.Node.text } :: !undo;
          n.Node.text <- Some new_text)
        targets;
      Ok
        { undo = !undo;
          dg = [];
          touched = visited + List.length targets;
          result_count = List.length targets }
    end
  | Op.Transpose { source; dest } -> (
    let sources, v1 = Eval.select_counted doc source in
    let dests, v2 = Eval.select_counted doc dest in
    if sources = [] then Error (Target_not_found (Ast.to_string source))
    else if dests = [] then Error (Target_not_found (Ast.to_string dest))
    else
      (* The destination must not sit inside any moved subtree. *)
      let valid_dest d =
        not (List.exists (fun s -> is_ancestor_of ~anc:s d) sources)
      in
      match List.find_opt valid_dest dests with
      | None -> Error (Invalid_op "destination lies inside a moved subtree")
      | Some dest_node ->
        if List.exists (fun s -> s == doc.Doc.root) sources then
          Error (Invalid_op "cannot move the document root")
        else begin
          let undo = ref [] in
          let dg = ref [] in
          let touched = ref (v1 + v2) in
          List.iter
            (fun (s : Node.t) ->
              if attached_to_root doc s && not (s == dest_node) then begin
                let old_parent =
                  match s.Node.parent with
                  | Some p -> p.Node.id
                  | None -> assert false
                in
                dg := !dg @ dg_removes s;
                let old_index = Node.detach s in
                Node.add_child dest_node s;
                dg := !dg @ dg_adds s;
                undo :=
                  Undo_transpose { node = s.Node.id; old_parent; old_index }
                  :: !undo;
                touched := !touched + Node.subtree_size s
              end)
            sources;
          Ok
            { undo = !undo;
              dg = !dg;
              touched = !touched;
              result_count = List.length !undo }
        end)

let undo (doc : Doc.t) (entries : undo_entry list) : dg_delta list =
  let dg = ref [] in
  let find id =
    match Doc.find doc id with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Exec.undo: unknown node %d" id)
  in
  List.iter
    (fun entry ->
      match entry with
      | Undo_insert id ->
        let n = find id in
        dg := !dg @ dg_removes n;
        ignore (Node.detach n);
        Doc.unregister_subtree doc n
      | Undo_remove { parent; index; subtree } ->
        let p = find parent in
        Node.insert_child p ~at:index subtree;
        Doc.register_subtree doc subtree;
        dg := !dg @ dg_adds subtree
      | Undo_rename { node; old_label } ->
        let n = find node in
        dg := !dg @ dg_removes n;
        n.Node.label <- old_label;
        dg := !dg @ dg_adds n
      | Undo_change { node; old_text } ->
        let n = find node in
        n.Node.text <- old_text
      | Undo_transpose { node; old_parent; old_index } ->
        let n = find node in
        dg := !dg @ dg_removes n;
        ignore (Node.detach n);
        let p = find old_parent in
        Node.insert_child p ~at:old_index n;
        dg := !dg @ dg_adds n)
    entries;
  !dg
