(** The XMark workload adapted to DTX's languages (paper §3: "the XMark
    benchmark is extended, adapting its queries to the XPath language and
    adding update operations").

    {!adapted_queries} are the static query templates (XMark queries that
    survive restriction to the XPath subset, by XMark query number);
    {!gen_query}/{!gen_update} instantiate templates against the {!pools} of
    a concrete (fragment) document, picking entity ids that actually exist
    there so generated transactions exercise real data. *)

val adapted_queries : (string * string) list
(** [(template name, XPath text)] pairs; every path parses with
    {!Dtx_xpath.Parser.parse}. *)

type pools = private {
  persons : string array;  (** [person] ids, in document order *)
  items : string array;  (** [item] ids, in document order *)
  auctions : string array;  (** [open_auction] ids, in document order *)
  regions : string array;
      (** region elements directly under [regions], in document order
          (fragmentation distributes whole regions, so a fragment may lack
          some) *)
}
(** What one fragment offers the generator. Only {!pools} builds one. *)

val pools : Dtx_xml.Doc.t -> pools
(** One walk of [doc]. Build it once per fragment and reuse it for every
    generated operation: the generator's fragments are immutable (sites
    clone them), so the pools never go stale. Generating against pools
    built from a document that has since been updated may name entities
    that no longer exist. *)

val gen_query : Dtx_util.Rng.t -> pools -> Dtx_update.Op.t
(** A random query operation against the fragment [pools] was built from.
    A fragment without persons, items or auctions gets the ids ["p0"],
    ["i0"] or ["oa0"] in their place. *)

val gen_update : Dtx_util.Rng.t -> fresh:(unit -> int) -> pools -> Dtx_update.Op.t
(** A random update operation (insert / remove / change / transpose,
    weighted towards inserts and changes like the paper's scenario), chosen
    among the kinds the fragment has data for: item inserts and moves need
    a region, bid inserts and price changes an auction, quantity changes,
    removes and moves an item. [fresh] supplies unique numbers for new
    entity ids. *)
