module Dg = Dtx_dataguide.Dataguide
module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Ast = Dtx_xpath.Ast
module Eval = Dtx_xpath.Eval
module Op = Dtx_update.Op
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table

let vres (dg : Dg.t) (n : Dg.node) v =
  Table.value_resource dg.Dg.doc_name n.Dg.dg_id v

(* Enumerate the path's predicates with their anchoring prefix and, for Eq,
   the literal compared against. (Ast.predicate_paths strips predicates from
   its prefixes, so the literal must be recovered here.) *)
let predicates_with_literals (p : Ast.path) =
  let rec walk prefix_rev steps acc =
    match steps with
    | [] -> List.rev acc
    | (s : Ast.step) :: rest ->
      let prefix_rev = { s with Ast.preds = [] } :: prefix_rev in
      let prefix =
        { Ast.absolute = p.Ast.absolute; steps = List.rev prefix_rev }
      in
      let rec visit acc pred =
        match pred with
        | Ast.Eq (rel, v) -> (prefix, Ast.without_predicates rel, Some v) :: acc
        | Ast.Exists rel | Ast.Neq (rel, _) ->
          (* != and existence read every value of the path. *)
          (prefix, Ast.without_predicates rel, None) :: acc
        | Ast.And (a, b) | Ast.Or (a, b) -> visit (visit acc a) b
        | Ast.Pos _ | Ast.Last -> acc
      in
      let acc = List.fold_left visit acc s.Ast.preds in
      walk prefix_rev rest acc
  in
  walk [] p.Ast.steps []

(* Value locks for predicates: an Eq predicate reads only one value of the
   predicate path, so ST goes on the (node, literal) resource; IS still
   covers the plain node and its ancestors. Exists predicates read every
   value and keep the full ST. *)
let predicate_locks dg gv (p : Ast.path) =
  List.concat_map
    (fun ((prefix : Ast.path), (rel : Ast.path), literal) ->
      let full = Ast.without_predicates (Xdgl_rules.concat_path prefix rel) in
      match literal with
      | Some v ->
        List.concat_map
          (fun n ->
            (vres dg n v, Mode.ST) :: Xdgl_rules.with_ancestors gv Mode.IS n)
          (gv.Xdgl_rules.select full)
      | None -> Xdgl_rules.reads gv full)
    (predicates_with_literals p)

(* The predicates inside [p] resolve against [doc], so the affected node set
   is exact; for each affected document node, X the (DataGuide node, text)
   value resources the update invalidates. *)
let value_invalidations dg (doc : Doc.t) (p : Ast.path) ~new_text =
  let targets = Eval.select doc p in
  List.concat_map
    (fun (n : Node.t) ->
      match Dg.find_path dg (Node.label_path n) with
      | None -> []
      | Some dgn ->
        let old_v = Node.text_content n in
        let olds = if old_v = "" then [] else [ (vres dg dgn old_v, Mode.X) ] in
        let news =
          match new_text with
          | Some v when v <> old_v -> [ (vres dg dgn v, Mode.X) ]
          | _ -> []
        in
        olds @ news)
    targets

(* Value locks for a whole subtree leaving or entering the document. *)
let subtree_value_locks dg (root : Node.t) =
  List.rev
    (Node.fold
       (fun acc (n : Node.t) ->
         match (n.Node.text, Dg.find_path dg (Node.label_path n)) with
         | Some v, Some dgn when v <> "" -> (vres dg dgn v, Mode.X) :: acc
         | _ -> acc)
       [] root)

let requests dg (doc : Doc.t) (op : Op.t) =
  (* Replace the coarse predicate ST locks of the structural rules with
     value-scoped ones: recompute the base rules on the predicate-free
     operation, then add our refined predicate locks. *)
  let strip (p : Ast.path) = Ast.without_predicates p in
  let base_op =
    match op with
    | Op.Query p -> Op.Query (strip p)
    | Op.Insert i -> Op.Insert { i with target = strip i.target }
    | Op.Remove p -> Op.Remove (strip p)
    | Op.Rename r -> Op.Rename { r with target = strip r.target }
    | Op.Change c -> Op.Change { c with target = strip c.target }
    | Op.Transpose t ->
      Op.Transpose { source = strip t.source; dest = strip t.dest }
  in
  let gv = Xdgl_rules.guide_view dg in
  let base = Xdgl_rules.requests gv base_op in
  let preds =
    List.concat_map (predicate_locks dg gv) (Op.paths op)
  in
  let values =
    match op with
    | Op.Query _ -> []
    | Op.Change { target; new_text } ->
      value_invalidations dg doc target ~new_text:(Some new_text)
    | Op.Rename { target; _ } ->
      value_invalidations dg doc target ~new_text:None
    | Op.Remove p ->
      List.concat_map (subtree_value_locks dg) (Eval.select doc p)
    | Op.Insert { target; pos; fragment } -> (
      (* Phantom protection: X the value resources the new content will
         occupy, so a predicate reader of that value conflicts with the
         insert. The new label paths are the connect node's path extended
         by the fragment's internal paths. *)
      match Dtx_xml.Parser.parse_fragment fragment with
      | exception Dtx_xml.Parser.Parse_error _ -> []
      | frag ->
        List.concat_map
          (fun connect ->
            List.rev
              (Node.fold
                 (fun acc (fn : Node.t) ->
                   match fn.Node.text with
                   | Some v when v <> "" ->
                     let full =
                       Dg.label_path connect @ Node.label_path fn
                     in
                     let dgn = Dg.ensure_path dg full in
                     (vres dg dgn v, Mode.X) :: acc
                   | _ -> acc)
                 [] frag.Doc.root))
          (Xdgl_rules.connects gv pos target))
    | Op.Transpose { source; _ } ->
      (* Moved values keep their text but change paths; lock the old
         locations' values exclusively. *)
      List.concat_map (subtree_value_locks dg) (Eval.select doc source)
  in
  Table.dedup_requests (base @ preds @ values)
