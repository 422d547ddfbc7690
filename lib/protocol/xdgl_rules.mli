(** One lock-rule table for the tree protocols, read over a {e view} of the
    tree being locked. The paper's XDGL rules (§2) lock DataGuide nodes; the
    taDOM protocol its §5 future work proposes plugging in locks document
    nodes. The rules are the same, so {!requests} states them once:

    - {b query}: ST on each target node, IS on its ancestors.
    - {b insert}: X on the node the new content lands on, IX above;
      SI (into) / SA (after) / SB (before) on the node it connects to, IS
      above.
    - {b remove}: XT on the targets (the whole subtree goes), IX above.
    - {b rename}: XT on the target, IX above; X on where the renamed node
      lands, IX above.
    - {b change}: X on the target node, IX above.
    - {b transpose}: XT on the source, SI on the destination, X on the new
      location, with the matching intention locks above each.

    Every operation also takes ST (+ IS above) on the nodes its path
    predicates read. Landing locks exist only in a view with a [landing].

    - {!guide_view} (XDGL): DataGuide nodes, one per label path. Targets are
      {e structural} ({!Dtx_dataguide.Dataguide.match_path} ignores
      predicates), so the locks cover every document node the operation
      could touch; new content lands on its label path, created with count
      0 if new.
    - {!instance_view} (taDOM, after Haustein & Härder, the winner of the
      "Contest of XML lock protocols" the paper cites as [21]): document
      nodes, predicates applied exactly ({!Dtx_xpath.Eval.select}; lock
      acquisition and execution are atomic at a site). New content has no
      landing: no concurrent operation can name it yet, and the connect
      node's SI/SA/SB admits concurrent inserts under one parent while
      blocking subtree readers and exclusives. The lock set is
      [targets × depth], as cheap as XDGL's, but conflicts are per
      document node: inserts under different parents with the same label
      path do not conflict. Mode mapping onto {!Dtx_locks.Mode}: SR
      (subtree read) → [ST], node exclusive → [X], subtree exclusive →
      [XT], CX (child-insert exclusive) → [SI]/[SA]/[SB], IR/IX → [IS]/[IX].

    The certifier's semantic conflict oracle reads the same views. *)

type 'n view = {
  doc : string;  (** the document the lock resources belong to *)
  id : 'n -> int;
  label : 'n -> string;
  select : Dtx_xpath.Ast.path -> 'n list;
  ancestors : 'n -> 'n list;  (** nearest first *)
  parent : 'n -> 'n option;
  subtree : 'n -> 'n list;  (** descendants-or-self *)
  landing : ('n -> string -> 'n) option;
      (** where content with a given label lands under a connect node;
          [None] when new content has no pre-existing node to stand for
          it *)
}
(** A tree the rules read: how to name, select and walk its nodes. *)

val guide_view : Dtx_dataguide.Dataguide.t -> Dtx_dataguide.Dataguide.node view
(** DataGuide nodes; [landing] is {!Dtx_dataguide.Dataguide.ensure_path}
    under the connect node, so it may create zero-count nodes. *)

val instance_view : Dtx_xml.Doc.t -> Dtx_xml.Node.t view
(** Document nodes; no [landing]. *)

val requests :
  'n view -> Dtx_update.Op.t -> (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list
(** The deduplicated lock set for the operation. Over {!guide_view} it may
    create zero-count DataGuide nodes for insert/rename/transpose new
    locations, in a fixed call order. *)

val with_ancestors :
  'n view -> Dtx_locks.Mode.t -> 'n -> (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list
(** A lock on the node plus the matching intention lock on each ancestor. *)

val reads :
  'n view -> Dtx_xpath.Ast.path -> (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list
(** ST on every node the path selects, IS above: the query rule, and the
    virtual read the commutativity analysis charges each path. *)

val connects : 'n view -> Dtx_update.Op.position -> Dtx_xpath.Ast.path -> 'n list
(** The nodes an insert at the path attaches under: the targets themselves
    for INTO, their parents for AFTER/BEFORE (a parentless target stands for
    itself). *)

val concat_path : Dtx_xpath.Ast.path -> Dtx_xpath.Ast.path -> Dtx_xpath.Ast.path
(** [concat_path prefix rel]: [rel]'s steps appended to [prefix]. *)

val frag_root_label : string -> string option
(** Root element name of an XML fragment text, if scannable. *)
