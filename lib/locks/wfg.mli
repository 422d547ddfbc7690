(** Wait-for graphs.

    Each DTX site maintains one: an edge [w → h] records that transaction
    [w] waits for a lock held by [h]. Local deadlocks show up as cycles in
    one site's graph (Alg. 3 l. 9); distributed deadlocks only show up in
    the {e union} of all sites' graphs, which the periodic detector builds
    (Alg. 4). *)

type t

val create : unit -> t

val add_wait : t -> waiter:int -> holders:int list -> unit
(** Add edges from [waiter] to every holder (self-edges are ignored). *)

val clear_waits_of : t -> int -> unit
(** Remove [txn]'s outgoing edges (it stopped waiting). *)

val remove_txn : t -> int -> unit
(** Remove [txn] and every edge touching it (it committed or aborted).
    O(degree of [txn]) via a reverse-edge index, not O(vertices). *)

val waits_of : t -> int -> int list
(** Transactions [txn] currently waits for. *)

val waiters_of : t -> int -> int list
(** Transactions currently waiting for [txn] (the reverse-edge index). *)

val edges : t -> (int * int) list
(** All (waiter, holder) pairs. *)

val txns : t -> int list
(** Every transaction appearing in the graph. *)

val find_cycle : t -> int list option
(** Some cycle as a list of distinct transactions (in cycle order), or
    [None]. A DFS from every vertex with out-edges, in ascending order, that
    reports the first back edge it meets: the result depends only on the
    graph content, so callers can choose deadlock victims from it
    deterministically. *)

val union : t list -> t
(** A fresh graph containing every edge of the inputs — the distributed
    detector's merged view. Inputs are not modified. *)

val copy : t -> t

val size : t -> int
(** Number of edges. *)

val clear : t -> unit
(** Remove every edge. *)

val pp : Format.formatter -> t -> unit
