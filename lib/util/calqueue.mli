(** Calendar queues (R. Brown, CACM 1988): a priority queue for event
    scheduling whose buckets partition time into fixed-width windows laid
    out round-robin over an array — "days on a calendar page". With bucket
    width tracking the mean inter-event gap, push and pop are O(1) expected
    versus the binary heap's O(log n), which is what keeps million-event
    scale runs flat.

    Elements carry a [(time, seq)] key read through the accessors given to
    {!create}; the queue dispatches in strictly increasing [(time, seq)]
    order. Equal times land in the same bucket and the per-bucket lists are
    kept sorted by [(time, seq)], so FIFO tie order is exactly the binary
    heap's.
    Every sizing decision (growth, shrink, bucket width) is a pure function
    of queue content, so runs are deterministic. *)

type 'a t

val create : time:('a -> float) -> seq:('a -> int) -> unit -> 'a t
(** An empty queue. [time] must be non-negative and [seq] unique per
    element; elements pushed in increasing [seq] order at equal [time]
    dispatch FIFO. *)

val length : 'a t -> int

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element by [(time, seq)] without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element by [(time, seq)]. *)

val remove : 'a t -> 'a -> unit
(** Remove the element with the given element's [(time, seq)] key, leaving
    the rest in place — how the simulator fires the event a chooser picked
    out of [(time, seq)] order.
    @raise Invalid_argument if no such element is queued. *)

val to_list : 'a t -> 'a list
(** Every element in unspecified order (queue unchanged). *)
