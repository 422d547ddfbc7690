(** Replica placement and the catalog (Fig. 8 of the paper).

    With {e total} replication every document lives at every site; with
    {e partial} replication each fragment is placed round-robin, optionally
    with extra copies (the bold entries of Fig. 8). The catalog answers the
    coordinator's "which sites hold the data this operation involves?"
    question (Alg. 1 l. 12). *)

type replication =
  | Total
  | Partial of { copies : int }  (** [copies >= 1] replicas per document *)

val replication_to_string : replication -> string

type placement = {
  doc : Dtx_xml.Doc.t;
  sites : int list;  (** site ids holding a replica, sorted *)
}

val allocate :
  n_sites:int -> replication -> Dtx_xml.Doc.t list -> placement list
(** Assign each document its sites. Documents are placed in list order:
    document [i] goes to sites [i, i+1, …, i+copies-1 (mod n_sites)].
    @raise Invalid_argument if [n_sites < 1] or [copies] out of range. *)

type catalog

val catalog : placement list -> catalog

val sites_of : catalog -> string -> int list
(** Sites holding the named document ([[]] if unknown). *)

val docs_at : catalog -> int -> string list
(** Documents stored at a site, sorted. *)

val all_docs : catalog -> string list
