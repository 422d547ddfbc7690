(** Applying update operations to a document, producing {e undo logs} and
    {e DataGuide deltas}.

    DTX undoes an operation's effects whenever locks cannot be obtained at
    every participant site (Alg. 1 l. 16), and undoes whole transactions on
    abort (Alg. 6); the undo log produced here is what makes both possible.
    DataGuide deltas let the lock manager keep its summary structure exact
    without rebuilding it. *)

type dg_delta =
  | Dg_add of string list  (** one document node appeared at this label path *)
  | Dg_remove of string list  (** one document node left this label path *)

type undo_entry =
  | Undo_insert of int  (** id of an inserted subtree's root *)
  | Undo_remove of { parent : int; index : int; subtree : Dtx_xml.Node.t }
  | Undo_rename of { node : int; old_label : string }
  | Undo_change of { node : int; old_text : string option }
  | Undo_transpose of { node : int; old_parent : int; old_index : int }

type effect = {
  undo : undo_entry list;  (** newest first; {!undo} consumes this order *)
  dg : dg_delta list;  (** DataGuide maintenance for the forward direction *)
  touched : int;  (** document nodes visited or written — the cost proxy *)
  result_count : int;  (** query results or update targets affected *)
}

type error =
  | Target_not_found of string  (** the operation's path selected nothing *)
  | Invalid_op of string  (** structurally impossible (remove the root, move a node into its own subtree, unparseable fragment, …) *)

val error_to_string : error -> string

val apply : Dtx_xml.Doc.t -> Op.t -> (effect, error) result
(** [apply doc op] executes [op]. On [Error _] the document is unchanged. *)

val undo : Dtx_xml.Doc.t -> undo_entry list -> dg_delta list
(** [undo doc entries] reverses an {!effect.undo} log (entries must be in the
    newest-first order [apply] produced) and returns the DataGuide deltas of
    the reversal. *)
