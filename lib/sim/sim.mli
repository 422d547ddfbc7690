(** Deterministic discrete-event simulator.

    The whole DTX cluster runs inside one of these: sites, clients, the
    network and the periodic deadlock detector are all callbacks scheduled on
    a single virtual clock. Events with equal timestamps fire in scheduling
    (FIFO) order, which — together with the seeded {!Dtx_util.Rng} — makes
    every experiment bit-for-bit reproducible.

    Time is a [float] in {e simulated milliseconds}.

    The dispatch queue is a calendar queue ({!Dtx_util.Calqueue}) with O(1)
    expected operations, dispatching in (time, seq) order. It holds exactly
    the pending events: an event leaves it only by firing.

    The simulator runs on one domain. Every result the paper reports is in
    virtual time, which the wall-clock speed of the dispatch loop cannot
    change. *)

type t

type event_id
(** Identity of a scheduled event: what a {!set_chooser} hook returns to
    pick it among the {!candidates}. *)

val create : unit -> t
(** A fresh simulator with clock at [0.0]. *)

val now : t -> float
(** Current virtual time (ms). *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule sim ~delay f] runs [f] at [now sim +. delay]. [delay] must be
    non-negative. @raise Invalid_argument on a negative delay. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** [schedule_at sim ~time f] runs [f] at absolute [time] (clamped to [now] if
    in the past). *)

val every : t -> period:float -> ?start:float -> (unit -> bool) -> unit
(** [every sim ~period f] runs [f] at [start] (default [period]) and then
    every [period] ms for as long as [f] returns [true]. This is how the
    distributed deadlock detector is driven. *)

val pending : t -> int
(** Number of events still queued. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run sim] processes events in timestamp order until the queue drains, the
    clock passes [until], or [max_events] events have fired. The clock ends at
    the last processed event's time. With a {!set_chooser} hook installed,
    [until] bounds the {e earliest} pending event (the chooser may still fire
    a later one) and "timestamp order" becomes whatever the chooser picks. *)

val step : t -> bool
(** [step sim] processes exactly one event; [false] if the queue was empty. *)

(** {1 Controllable scheduling — the model-checking hook} *)

type candidate = { c_time : float; c_seq : event_id }
(** One pending event a chooser may fire next. *)

val candidates : t -> candidate list
(** Every pending event, sorted by (time, seq) — the enabled set a schedule
    explorer branches over. *)

val set_chooser : t -> (candidate list -> event_id) option -> unit
(** Install (or remove) a scheduler hook. While installed, {!step} (and
    {!run}) present the full {!candidates} list and fire the event whose id
    the hook returns instead of the earliest one — this is how the schedule
    explorer substitutes its own delivery/interleaving order. Firing an
    event behind the timestamp frontier never rewinds the clock: the clock
    advances to [max now chosen.c_time], so [now] stays monotone and events
    the fired action schedules land in the future. With [None] (the
    default) dispatch order is the classic (time, seq) order. The chosen
    event is removed from the queue in place.
    @raise Invalid_argument if the hook returns an id that is not pending. *)

val set_tracer : t -> (time:float -> seq:int -> unit) option -> unit
(** Install (or remove) a trace sink called for every fired event, after
    the clock advanced to its timestamp. Used by the
    analyzer to check clock monotonicity; [None] (the default) keeps the
    dispatch loop unchanged beyond one immediate [match]. *)
