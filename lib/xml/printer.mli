(** XML serialization — the inverse of {!Parser}. ["@attr"]-labelled children
    are rendered back as attributes. *)

val escape : string -> string
(** Escape ampersand, angle brackets and quotes as entities. *)

val node_to_string : ?indent:bool -> Node.t -> string
(** Serialize a subtree. With [indent] (default [true]) elements are placed on
    their own lines with two-space indentation; text-only elements stay on one
    line. *)

val to_string : ?indent:bool -> ?decl:bool -> Doc.t -> string
(** Serialize a whole document; [decl] (default [true]) prefixes the
    [<?xml ...?>] declaration. *)
