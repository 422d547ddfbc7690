module Node = Dtx_xml.Node
module Doc = Dtx_xml.Doc
module Vec = Dtx_util.Vec

(* One streaming pass per path. Each step hands its axis's candidates, in
   document order, straight to the node test and the predicates, so no
   candidate list is built. Every candidate is counted (predicate
   sub-evaluations included) so the simulator can charge query cost
   proportional to the work actually done; [trace], when set, also receives
   each one (used by navigation-locking protocols). *)
type state = { mutable visited : int; trace : (Node.t -> unit) option }

let visit st n =
  st.visited <- st.visited + 1;
  match st.trace with Some sink -> sink n | None -> ()

let test_matches (test : Ast.test) (n : Node.t) =
  match test with
  | Ast.Name name -> n.Node.label = name
  | Ast.Wildcard -> not (Node.is_attribute n)
  | Ast.Any -> true

(* Calls [f] on every candidate of [axis] from [ctx], in document order. A
   leading [//] of an absolute path includes the root itself. *)
let iter_axis ~leading_absolute (axis : Ast.axis) (ctx : Node.t) f =
  match axis with
  | Ast.Child -> Vec.iter f ctx.Node.children
  | Ast.Descendant ->
    if leading_absolute then Node.iter f ctx
    else Vec.iter (Node.iter f) ctx.Node.children
  | Ast.Parent -> (match ctx.Node.parent with Some p -> f p | None -> ())
  | Ast.Self -> f ctx

let is_positional = function
  | Ast.Pos _ | Ast.Last -> true
  | Ast.Exists _ | Ast.Eq _ | Ast.Neq _ | Ast.And _ | Ast.Or _ -> false

(* Positional predicates pick from the matches of one context, so a step
   carrying one filters a per-context list, predicate by predicate. *)
let rec apply_preds st (preds : Ast.pred list) (nodes : Node.t list) =
  match preds with
  | [] -> nodes
  | Ast.Pos k :: rest ->
    let picked = match List.nth_opt nodes (k - 1) with Some n -> [ n ] | None -> [] in
    apply_preds st rest picked
  | Ast.Last :: rest ->
    let picked = match List.rev nodes with n :: _ -> [ n ] | [] -> [] in
    apply_preds st rest picked
  | (Ast.Exists _ | Ast.Eq _ | Ast.Neq _ | Ast.And _ | Ast.Or _) as pred :: rest ->
    apply_preds st rest (List.filter (fun n -> pred_holds st n pred) nodes)

(* All of a non-positional step's predicates, left to right; a node failing
   one is not tested against the rest. *)
and preds_hold st (n : Node.t) = function
  | [] -> true
  | pred :: rest -> pred_holds st n pred && preds_hold st n rest

(* Node-level (non-positional) predicate truth. Positional predicates are
   rejected inside boolean connectives by the parser, so hitting one here is
   a programming error. *)
and pred_holds st (n : Node.t) (pred : Ast.pred) =
  match pred with
  | Ast.Exists rel -> eval_rel st n rel <> []
  | Ast.Eq (rel, lit) ->
    List.exists (fun m -> Node.text_content m = lit) (eval_rel st n rel)
  | Ast.Neq (rel, lit) ->
    List.exists (fun m -> Node.text_content m <> lit) (eval_rel st n rel)
  | Ast.And (a, b) -> pred_holds st n a && pred_holds st n b
  | Ast.Or (a, b) -> pred_holds st n a || pred_holds st n b
  | Ast.Pos _ | Ast.Last -> invalid_arg "Eval: positional predicate in connective"

and eval_steps st ~leading_absolute (ctxs : Node.t list) (steps : Ast.step list)
    : Node.t list =
  match steps with
  | [] -> ctxs
  | { Ast.axis; test; preds } :: rest ->
    (* Contexts are distinct, so child and self steps yield distinct nodes,
       and so does any step from a single context. Only parent and
       descendant steps over several contexts can meet a node twice; the
       first meeting keeps its place. *)
    let seen =
      match (axis, ctxs) with
      | (Ast.Parent | Ast.Descendant), _ :: _ :: _ -> Some (Hashtbl.create 16)
      | _ -> None
    in
    let out = ref [] in
    let emit (n : Node.t) =
      match seen with
      | None -> out := n :: !out
      | Some seen ->
        if not (Hashtbl.mem seen n.Node.id) then begin
          Hashtbl.add seen n.Node.id ();
          out := n :: !out
        end
    in
    if List.exists is_positional preds then
      List.iter
        (fun ctx ->
          let matched = ref [] in
          iter_axis ~leading_absolute axis ctx (fun n ->
              visit st n;
              if test_matches test n then matched := n :: !matched);
          List.iter emit (apply_preds st preds (List.rev !matched)))
        ctxs
    else
      List.iter
        (fun ctx ->
          iter_axis ~leading_absolute axis ctx (fun n ->
              visit st n;
              if test_matches test n && preds_hold st n preds then emit n))
        ctxs;
    eval_steps st ~leading_absolute:false (List.rev !out) rest

and eval_rel st (ctx : Node.t) (p : Ast.path) =
  eval_steps st ~leading_absolute:false [ ctx ] p.Ast.steps

let root_of (n : Node.t) =
  let rec up n = match n.Node.parent with None -> n | Some p -> up p in
  up n

let eval st (root : Node.t) (p : Ast.path) =
  match p.Ast.steps with
  | [] -> if p.Ast.absolute then [ root ] else []
  | first :: rest ->
    if p.Ast.absolute then
      match first.Ast.axis with
      | Ast.Parent ->
        (* The document node has no parent; nothing matches. *)
        []
      | Ast.Self -> eval_steps st ~leading_absolute:false [ root ] rest
      | Ast.Child ->
        (* The (virtual) document node's only child is the root element. *)
        visit st root;
        let matched =
          if test_matches first.Ast.test root then
            apply_preds st first.Ast.preds [ root ]
          else []
        in
        eval_steps st ~leading_absolute:false matched rest
      | Ast.Descendant -> eval_steps st ~leading_absolute:true [ root ] p.Ast.steps
    else eval_steps st ~leading_absolute:false [ root ] p.Ast.steps

let untraced () = { visited = 0; trace = None }

let select_counted (doc : Doc.t) p =
  let st = untraced () in
  let results = eval st doc.Doc.root p in
  (results, st.visited)

let select (doc : Doc.t) p = eval (untraced ()) doc.Doc.root p

let select_from (ctx : Node.t) p =
  if p.Ast.absolute then eval (untraced ()) (root_of ctx) p
  else eval_steps (untraced ()) ~leading_absolute:false [ ctx ] p.Ast.steps

let nodes_visited (doc : Doc.t) p = snd (select_counted doc p)

(* Visited nodes are marked in a bitmap over node ids, which a document
   keeps below [next_id]: it registers every node it gains. *)
let distinct_visited (doc : Doc.t) p =
  let marks = Bytes.make ((doc.Doc.next_id lsr 3) + 1) '\000' in
  let distinct = ref 0 in
  let sink (n : Node.t) =
    let byte = n.Node.id lsr 3 and bit = 1 lsl (n.Node.id land 7) in
    let b = Char.code (Bytes.get marks byte) in
    if b land bit = 0 then begin
      Bytes.set marks byte (Char.chr (b lor bit));
      incr distinct
    end
  in
  ignore (eval { visited = 0; trace = Some sink } doc.Doc.root p);
  !distinct

let matches (n : Node.t) p =
  let results = eval (untraced ()) (root_of n) p in
  List.exists (fun m -> m.Node.id = n.Node.id) results
