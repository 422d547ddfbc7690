(** Transactions: an ordered list of operations over named documents,
    executed under Strict 2PL by a coordinator site.

    Transaction ids are allocated monotonically cluster-wide, so "the most
    recent transaction in the cycle" (the deadlock victim rule, Alg. 4 l. 7)
    is simply the largest id. The paper's outcome taxonomy is the status
    machine here: a transaction always ends {e committed}, {e aborted} (by
    deadlock or by an operation failure) or {e failed} (abort processing
    itself failed at some site, §2.2). *)

type status =
  | Active  (** scheduled, executing operations *)
  | Waiting  (** blocked on a lock conflict; resumes when the blocker ends *)
  | Committed
  | Aborted
  | Failed

val status_to_string : status -> string

type op_record = {
  op_index : int;
  doc : string;  (** document the operation addresses *)
  op : Dtx_update.Op.t;
  op_text : string;
      (** canonical [Op.to_string] rendering, precomputed at {!create} so
          shipment building and wire sizing never re-render the operation *)
  mutable executed : bool;
  mutable executed_sites : int list;  (** sites where effects were applied *)
}

type t = {
  id : int;
  client : int;
  coordinator : int;  (** site id where the transaction was submitted *)
  ops : op_record array;
  mutable status : status;
  mutable next_op : int;  (** index of the first unexecuted operation *)
  mutable submitted_at : float;
  mutable finished_at : float;
  mutable wait_started : float;
  mutable waited_total : float;  (** accumulated lock-wait time *)
}

val create :
  id:int -> client:int -> coordinator:int ->
  (string * Dtx_update.Op.t) list -> t
(** [create ~id ~client ~coordinator ops] builds a transaction from
    (document, operation) pairs, in execution order. *)

val next_operation : t -> op_record option
(** The first unexecuted operation, if any (Alg. 1 l. 4). *)

val advance : t -> unit
(** Mark the current operation executed and move on. *)

val is_finished : t -> bool
(** No unexecuted operations remain (commit becomes possible, Alg. 1
    l. 24). *)

val is_update : t -> bool
(** Contains at least one update operation. *)

val docs : t -> string list
(** Distinct documents touched, sorted. *)

val response_time : t -> float
(** [finished_at - submitted_at]; meaningful once finished. *)

val pp : Format.formatter -> t -> unit
