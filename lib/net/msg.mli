(** The DTX wire protocol: one typed constructor per message the paper's
    algorithms exchange between sites.

    Every inter-site interaction — operation shipment and status replies
    (Algs. 1/2), cross-site undo (Alg. 1 l. 16), wake notifications (§2.2),
    the commit/abort fan-out and its acks (Algs. 5/6), the 2PC vote round,
    wound/victim notifications, and the deadlock detector's wait-for-graph
    collection (Alg. 4) — is a value of {!t}, serialized by {!encode} so the
    network layer charges its {e real} size instead of a fixed guess.

    [Net.dispatch] routes these values; the per-kind traffic counters it
    keeps are what the experiment reports call "communication and
    synchronization overhead". *)

module Op = Dtx_update.Op

(** Outcome a participant reports for an operation shipment (Alg. 2 l. 13).
    [Blocked]/[Deadlock]/[Failed] refer to the first operation of the
    shipment that did not execute; [Op_status.granted] counts the prefix
    that did. *)
type op_status =
  | Granted  (** every operation of the shipment executed *)
  | Blocked  (** conflicting locks; wait-for edges were recorded *)
  | Deadlock  (** granting would close a local cycle (or wait-die death) *)
  | Failed of string  (** execution failed (bad target, site down, …) *)

(** One operation inside an {!t.Op_ship}. *)
type shipment = {
  s_index : int;  (** the operation's index in its transaction *)
  s_doc : string;  (** target document *)
  s_op : Op.t;
  s_text : string;
      (** the operation's canonical {!Op.to_string} rendering, computed once
          when the shipment is built (at transaction submit time) and written
          verbatim on the wire — sizing and encoding never re-render the
          operation *)
  s_optimistic : bool;
      (** the coordinator's commutativity classifier proved this operation
          commutes with every concurrently active one, so the participant
          may skip lock acquisition (read-only footprint) or downgrade to
          intention modes; always [false] outside the Commute protocol *)
}

val shipment : ?optimistic:bool -> index:int -> doc:string -> Op.t -> shipment
(** Build a shipment, rendering [s_text] from the operation. [optimistic]
    defaults to [false]. *)

type t =
  | Op_ship of { txn : int; attempt : int; seq : int; ops : shipment list }
      (** coordinator → participant: execute these operations (Alg. 1
          l. 13). Consecutive operations bound for the same single site
          ride one shipment. [seq] uniquely identifies this dispatch —
          retransmitted copies reuse it, so participants deduplicate
          replayed or network-duplicated shipments idempotently. *)
  | Op_status of {
      txn : int;
      attempt : int;
      seq : int;  (** echo of the shipment's [seq] *)
      granted : int;  (** how many shipped operations executed *)
      status : op_status;
      result_bytes : int;
          (** modelled payload of query results riding this reply (the
              simulation does not materialize result sets; this sizes
              them for the cost model) *)
    }  (** participant → coordinator: shipment outcome (Alg. 2 l. 13) *)
  | Op_undo of { txn : int; op_index : int; attempt : int }
      (** coordinator → participant: reverse one executed operation — the
          cross-site all-or-nothing rule (Alg. 1 l. 16) *)
  | Prepare of { txn : int }  (** 2PC phase one (future-work extension) *)
  | Vote of { txn : int; ok : bool }  (** participant's 2PC vote *)
  | Commit of { txn : int }  (** consolidation message (Alg. 5 l. 3) *)
  | Abort of { txn : int; quiet : bool }
      (** abort fan-out (Alg. 6 l. 3). [quiet] marks the best-effort
          "fail the transaction everywhere" broadcast sent when a normal
          abort could not complete (Alg. 6 l. 6-9): no ack is expected
          and no waiters are woken. *)
  | End_ack of { txn : int; ok : bool }
      (** participant → coordinator: commit/abort processed (or refused) *)
  | Wake of { txn : int }
      (** participant → coordinator: locks [txn] waited for were released;
          resume it (§2.2) *)
  | Wound of { txn : int }
      (** participant → coordinator: an older requester needs [txn]'s
          locks — abort it (wound-wait prevention) *)
  | Victim of { txn : int }
      (** detector → coordinator: [txn] is the newest transaction in a
          distributed cycle — abort it (Alg. 4 l. 7) *)
  | Wfg_request  (** detector → participant: send your wait-for graph *)
  | Wfg_reply of { edges : (int * int) list }
      (** participant → detector: local (waiter, holder) edges (Alg. 4
          l. 4) *)
  | Outcome_query of { txn : int }
      (** recovering participant → coordinator: WAL replay found [txn]
          in doubt (a [Prepared] record with no outcome) — what happened
          to it? This re-registers the restarted site with the
          coordinator (the presumed-abort uncertainty-period query). *)
  | Outcome_reply of { txn : int; committed : bool }
      (** coordinator → participant: the recorded outcome of a finalized
          transaction; a coordinator with no record answers
          [committed = false] (presumed abort). *)

(** Message kinds, for per-type traffic accounting. *)
module Kind : sig
  type t =
    | Op_ship
    | Op_status
    | Op_undo
    | Prepare
    | Vote
    | Commit
    | Abort
    | End_ack
    | Wake
    | Wound
    | Victim
    | Wfg_request
    | Wfg_reply
    | Outcome_query
    | Outcome_reply

  val count : int
  val all : t list
  val index : t -> int (* dense, 0 .. count-1 *)
  val to_string : t -> string
end

val kind : t -> Kind.t

val txn : t -> int option
(** The transaction a message serves; [None] for the deadlock detector's
    {!t.Wfg_request} and {!t.Wfg_reply}, which serve a whole site. *)

val encode : t -> string
(** Compact binary rendering: a kind tag, then LEB128 varints for integers
    and length-prefixed strings (operations ride their {!Op.to_string}
    form). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}: [decode (encode m)] reconstructs [m]. *)

val size : t -> int
(** Bytes this message occupies on the wire: exactly
    [String.length (encode m)], plus the modelled result payload for
    {!t.Op_status}. This is what every send charges the network. Computed
    arithmetically (varint widths + string lengths) without encoding, so
    the per-dispatch cost is allocation-free. *)

val pp : Format.formatter -> t -> unit
