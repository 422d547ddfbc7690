(** Mutable XML element trees.

    Every node has a unique-per-document integer [id] (assigned by
    {!Doc.fresh_node}), an element [label], optional [text] content and
    ordered children. XML attributes are modelled as child elements whose
    label starts with ["@"] and whose [text] is the attribute value; this
    keeps a single node kind throughout the locking machinery (the XDGL
    DataGuide treats attributes as just another label path, following
    Goldman–Widom). *)

type t = {
  id : int;
  mutable label : string;
  mutable text : string option;
  mutable children : t Dtx_util.Vec.t;
  mutable parent : t option;
}

val make : id:int -> label:string -> ?text:string -> unit -> t
(** A detached node with no children. *)

val is_attribute : t -> bool
(** [is_attribute n] is [true] iff [n.label] starts with ["@"]. *)

val add_child : t -> t -> unit
(** [add_child parent child] appends [child] and sets its parent pointer.
    @raise Invalid_argument if [child] already has a parent. *)

val insert_child : t -> at:int -> t -> unit
(** [insert_child parent ~at child] inserts at position [at] (clamped to
    [0 .. nchildren]). @raise Invalid_argument if [child] has a parent. *)

val detach : t -> int
(** [detach n] removes [n] from its parent's child list and clears the parent
    pointer; returns the index it occupied. @raise Invalid_argument if [n] has
    no parent. *)

val child_index : t -> int
(** [child_index n] is [n]'s position among its parent's children.
    @raise Invalid_argument if [n] has no parent. *)

val children : t -> t list
(** Children in document order. *)

val find_child : t -> label:string -> t option
(** First child with the given label. *)

val attribute : t -> string -> string option
(** [attribute n name] is the value of attribute [name] (without the ["@"]),
    if present. *)

val text_content : t -> string
(** Concatenated text of [n] and its non-attribute descendants. *)

val iter : (t -> unit) -> t -> unit
(** Pre-order traversal of the subtree rooted at the node. *)

val fold : ('acc -> t -> 'acc) -> 'acc -> t -> 'acc
(** Pre-order fold over the subtree. *)

val subtree_size : t -> int
(** Number of nodes in the subtree (including the root). *)

val depth : t -> int
(** Distance from the document root (root has depth 0). *)

val label_path : t -> string list
(** Labels from the document root down to the node, inclusive. *)

val ancestors : t -> t list
(** Ancestors from parent up to the root (nearest first). *)

val descendant_or_self : t -> t list
(** The subtree in document order. *)

val clone : alloc:(unit -> int) -> t -> t
(** Deep copy with fresh ids from [alloc]; the copy is detached. *)

val equal_structure : t -> t -> bool
(** Structural equality ignoring ids (labels, text, child order). *)

val pp : Format.formatter -> t -> unit
(** One-line debug rendering. *)
