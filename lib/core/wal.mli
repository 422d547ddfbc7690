(** Per-site write-ahead commit log — the durability half of the paper's
    future work ("develop solutions for DTX to work with the properties of
    atomicity and durability", §5).

    Under two-phase commit each participant logs [Prepared] before voting
    yes, and logs the outcome ([Committed] {e after} the DataManager's
    write-back, [Aborted] otherwise). The log is durable: it survives
    {!Site.wipe_volatile}. Because the outcome record is written only after
    persistence completes, the store is always consistent with the log.

    A [Prepared] record carries everything the site needs to honour its yes
    vote across a crash: the coordinator to re-register with
    ([Msg.Outcome_query]) and the {e redo} list — the transaction's
    operations at this site, in execution order, in their textual form.
    Crash recovery is presumed abort with an uncertainty period: an
    in-doubt transaction (prepared, no outcome) is resolved by asking its
    coordinator; a committed answer replays the redo list against the
    recovered store, an aborted (or unknown — {e presumed abort}) answer
    just records [Aborted], since the volatile effects never reached the
    store. *)

type entry =
  | Prepared of {
      txn : int;
      time : float;
      coord : int;  (** coordinator site, for the recovery outcome query *)
      redo : (string * string) list;
          (** (document, operation text) in execution order — what commit
              must re-apply if the volatile effects died in a crash *)
    }
  | Committed of { txn : int; time : float }
  | Aborted of { txn : int; time : float }

type t
(** The log in append order, plus an index of each transaction's latest
    state, one byte per transaction id (ids are the coordinator's dense
    counter, so non-negative). [append] keeps the index current; the
    lookups below read it instead of scanning the log. *)

val create : unit -> t
(** An empty log. The index allocates nothing until the first record,
    then room for 256 ids, doubling as larger ids arrive. *)

val append : t -> entry -> unit
(** Amortised O(1). @raise Invalid_argument on a negative transaction id. *)

val entries : t -> entry list
(** In append order. *)

val length : t -> int

val outcome_of : t -> int -> [ `Committed | `Aborted | `In_doubt | `Unknown ]
(** The latest state the log records for a transaction, in O(1): the
    latest outcome record if there is one (a [Prepared] logged after it
    leaves it), else [`In_doubt] after a [Prepared], else [`Unknown]. *)

val in_doubt : t -> int list
(** Transactions whose latest record is a [Prepared] — what a recovering
    site must resolve (sorted). O(highest transaction id logged). A
    [Prepared] logged after an outcome record lists the transaction here
    while {!outcome_of} keeps its outcome. *)

val prepared_record : t -> int -> (int * (string * string) list) option
(** [(coordinator, redo)] of the transaction's latest [Prepared] record,
    if any — the recovery inputs. O(1) for a transaction the log has never
    seen; otherwise a walk back from the tail to that record. *)

val resolve_presumed_abort : t -> int list
(** Append [Aborted] for every in-doubt transaction without consulting
    anyone (the blunt offline resolution: correct only when the log owner
    knows its coordinators hold no commit record); returns the transactions
    resolved. The online path — {!Site} restart via [Participant] — asks
    the coordinator instead. *)
