module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Ast = Dtx_xpath.Ast
module Eval = Dtx_xpath.Eval
module Op = Dtx_update.Op
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table

let res (doc : Doc.t) (n : Node.t) = Table.resource doc.Doc.name n.Node.id

(* Lock-coupling navigation: every node the evaluator examines costs one
   lock request, but the lock is released as the traversal moves on, so
   navigation contributes to [processed] only. *)
let navigation_cost doc (p : Ast.path) = Eval.distinct_visited doc p

(* [mode] on every node of [n]'s subtree, intention above [n] — these are
   the locks retained until transaction end. *)
let subtree_with_ancestors doc mode (n : Node.t) =
  let up = Mode.intention_for mode in
  Node.fold (fun acc m -> (res doc m, mode) :: acc) [] n
  @ List.map (fun a -> (res doc a, up)) (Node.ancestors n)

(* Retained-lock targets come from the predicate-free skeleton so the locks
   cover everything the operation may touch, mirroring Xdgl_rules. *)
let main_targets doc (p : Ast.path) =
  Eval.select doc (Ast.without_predicates p)

let requests doc (op : Op.t) =
  let retained, nav =
    match op with
    | Op.Query p ->
      ( List.concat_map (subtree_with_ancestors doc Mode.ST) (main_targets doc p),
        navigation_cost doc p )
    | Op.Insert { target; pos; _ } ->
      let connects =
        Xdgl_rules.connects (Xdgl_rules.instance_view doc) pos
          (Ast.without_predicates target)
      in
      ( List.concat_map (subtree_with_ancestors doc Mode.X) connects,
        navigation_cost doc target )
    | Op.Remove p ->
      ( List.concat_map (subtree_with_ancestors doc Mode.X) (main_targets doc p),
        navigation_cost doc p )
    | Op.Rename { target; _ } | Op.Change { target; _ } ->
      ( List.concat_map (subtree_with_ancestors doc Mode.X) (main_targets doc target),
        navigation_cost doc target )
    | Op.Transpose { source; dest } ->
      ( List.concat_map (subtree_with_ancestors doc Mode.X) (main_targets doc source)
        @ List.concat_map (subtree_with_ancestors doc Mode.X) (main_targets doc dest),
        navigation_cost doc source + navigation_cost doc dest )
  in
  let retained = Table.dedup_requests retained in
  (retained, nav + List.length retained)
