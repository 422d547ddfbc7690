(** The lock table: who holds which mode on which resource.

    A {e resource} is a (document, node, value option) triple; which node-id
    space it refers to depends on the protocol (XDGL locks DataGuide node
    ids, Node2PL locks document node ids, Doc2PL locks the pseudo-node 0 of
    each document). The table itself is protocol-agnostic.

    Internally a resource is a packed integer — document names and lock
    values are interned ({!Dtx_util.Intern}) into small ids and packed with
    the node id into one word — so the table is an int-keyed hashtable with
    no polymorphic hashing or comparison on the grant path, and each entry
    carries the bitmask union of its held modes so the common conflict-free
    acquire is answered by a single AND ({!Mode.mask_compatible}) instead of
    a holder-list scan.

    Acquisition is {e all-or-nothing} over a request list, matching
    Alg. 3: either every requested lock is granted, or none is recorded and
    the conflicting transactions are reported (they become wait-for graph
    edges). Re-acquiring a mode already held is counted, so releases on undo
    are balanced. *)

type resource = private int
(** Packed (doc, node, value) key, below [2^59]: its integer order is the
    resource order, so code that sorts or merges footprints can coerce it
    with [:> int]. Use the accessors below to recover the components. The
    value dimension serves XDGL's logical/value locks: [(node, Some v)]
    resources are disjoint from [(node, None)] and from other values, so
    predicate readers of one value never collide with writers of
    another. *)

val resource : string -> int -> resource
(** Plain structural resource (no value dimension). Node ids must fit 28
    bits; at most 2048 distinct document names and 2^20-1 distinct lock
    values may be interned per process. @raise Invalid_argument beyond. *)

val value_resource : string -> int -> string -> resource

val resource_doc : resource -> string

val resource_node : resource -> int

val resource_value : resource -> string option

val compare_resource : resource -> resource -> int

val pp_resource : Format.formatter -> resource -> unit

val dedup_requests : (resource * Mode.t) list -> (resource * Mode.t) list
(** Sort and deduplicate a request list via single-int (resource, mode) keys
    — the protocols' replacement for [List.sort_uniq compare] over records. *)

val lists_conflict :
  compat:(Mode.t -> Mode.t -> bool) ->
  (resource * Mode.t) list ->
  (resource * Mode.t) list ->
  bool
(** Do two lock footprints collide: some resource held in both under modes
    [compat] rejects? The static analyses pass {!Mode.compatible}; a seeded
    certifier fault passes a weakened matrix. *)

type release_kind =
  | Undo  (** operation rollback: one reference-count decrement *)
  | End_of_txn  (** Strict 2PL end-of-transaction bulk release *)

type event =
  | Acquired of { txn : int; resource : resource; mode : Mode.t }
  | Released of {
      txn : int;
      resource : resource;
      mode : Mode.t;
      count : int;  (** reference counts dropped by this release *)
      kind : release_kind;
    }
  | Cleared  (** {!clear}: the site lost its volatile lock state *)

val pp_event : Format.formatter -> event -> unit

type t

val create : unit -> t

val set_tracer : t -> (event -> unit) option -> unit
(** Install (or remove) a trace sink. With [None] — the default — the grant
    and release paths are unchanged except for one immediate [match], so
    tracing costs nothing when disabled. The tracer fires after the table
    mutated, i.e. an [Acquired] event observes the lock already held. *)

val acquire_all :
  t -> txn:int -> (resource * Mode.t) list -> (unit, int list) result
(** [acquire_all t ~txn requests] grants every request or none. [Error txns]
    lists the distinct transactions whose held locks conflict (the wait-for
    edges to add). Requests by [txn] never conflict with [txn]'s own locks.
    Granted duplicates within one call are reference-counted. *)

val release_txn : t -> txn:int -> resource list
(** Release everything [txn] holds (Strict 2PL end-of-transaction release);
    returns the resources freed so the scheduler can wake waiters. *)

val release_request :
  t -> txn:int -> (resource * Mode.t) list -> unit
(** Undo one granted [acquire_all] (used when an operation is rolled back at
    a site while its transaction lives on and keeps its other locks). *)

val holders : t -> resource -> (int * Mode.t) list
(** Current holders of a resource (one entry per (txn, mode)). *)

val locks_of : t -> txn:int -> (resource * Mode.t) list
(** Every (resource, mode) held by [txn]. *)

val lock_count : t -> int
(** Total number of (txn, mode, resource) grants currently recorded — the
    "lock management overhead" the paper talks about. *)

val txn_holds : t -> txn:int -> resource -> Mode.t -> bool

val clear : t -> unit
(** Drop every grant (crash simulation: a restarting site loses its
    volatile lock state). *)
