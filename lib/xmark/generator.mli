(** A from-scratch generator for XMark-schema auction documents (Schmidt et
    al., VLDB '02) — the database of the paper's evaluation (its Fig. 7
    schema): a [site] root with [regions] (six continents of [item]s),
    [categories], [catgraph], [people] ([person]s with address/profile/…),
    [open_auctions] (with [bidder] histories) and [closed_auctions].

    Sizing: the paper measures its database in megabytes (40–200 MB of XMark
    output). This reproduction maps 1 paper-MB ≈ 250 document nodes
    ({!params_of_mb}) so the simulated experiments keep the paper's x-axes
    while staying fast; the protocols' relative behaviour depends only on
    node counts (see DESIGN.md, substitutions). *)

type params = {
  seed : int;
  items_per_region : int;
  persons : int;
  open_auctions : int;
  closed_auctions : int;
  categories : int;
}

val default_params : params
(** A small document (a few hundred nodes) for tests and examples. *)

val params_of_nodes : ?seed:int -> int -> params
(** Parameters sized so the generated document has approximately (within a
    few percent of) the requested node count. *)

val params_of_mb : ?seed:int -> float -> params
(** [params_of_mb mb] ≈ [params_of_nodes (250 * mb)] — the paper-MB
    calibration. @raise Invalid_argument below {!min_mb}. *)

val min_mb : float
(** The smallest size {!params_of_mb} accepts (0.04 paper-MB). *)

val generate : ?name:string -> params -> Dtx_xml.Doc.t
(** Deterministic for a given [params] (including [seed]). Default [name] is
    ["xmark"]. *)

val person_ids : Dtx_xml.Doc.t -> string list
(** The [@id] values of [person] elements present in (a fragment of) a
    generated document. *)

val item_ids : Dtx_xml.Doc.t -> string list

val open_auction_ids : Dtx_xml.Doc.t -> string list

val regions : string list
(** The six region element names. *)
