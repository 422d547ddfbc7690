(** XPath evaluation over {!Dtx_xml} trees. Results are in document order
    and duplicate-free. *)

val select : Dtx_xml.Doc.t -> Ast.path -> Dtx_xml.Node.t list
(** [select doc p] evaluates [p] from the document root (relative paths are
    treated as starting at the root element's children, i.e. like
    [/root/p]). *)

val select_from : Dtx_xml.Node.t -> Ast.path -> Dtx_xml.Node.t list
(** [select_from ctx p] evaluates a relative path from [ctx]; an absolute
    path restarts from [ctx]'s root. *)

val select_counted : Dtx_xml.Doc.t -> Ast.path -> Dtx_xml.Node.t list * int
(** [select_counted doc p] is [(select doc p, nodes_visited doc p)] from a
    single evaluation. *)

val nodes_visited : Dtx_xml.Doc.t -> Ast.path -> int
(** Number of candidate nodes the evaluator examines, predicate
    sub-evaluations included (a node met twice counts twice) — the
    simulator's cost proxy for query execution work. *)

val distinct_visited : Dtx_xml.Doc.t -> Ast.path -> int
(** Number of distinct nodes the evaluator examines while navigating.
    Navigation locking protocols (Node2PL) charge one lock request per such
    node. *)

val matches : Dtx_xml.Node.t -> Ast.path -> bool
(** [matches n p] is [true] iff [n] is in the result of evaluating [p] over
    [n]'s document. Used by tests as an oracle. *)
