(** Simulated message passing between DTX sites.

    Every inter-scheduler interaction of the paper — remote operations and
    their status replies (Alg. 1 l. 13, Alg. 2 l. 13), commit/abort/fail
    messages (Algs. 5–6), and the deadlock detector's wait-for-graph requests
    (Alg. 4 l. 4) — crosses this layer as a typed {!Msg.t} value routed by
    {!dispatch}. Each message costs a base latency plus a per-byte term
    (its {e actual} serialized size, {!Msg.size}), modelling the paper's
    100 Mbit/s switched LAN; local (same-site) deliveries are free but still
    go through the event queue, preserving causal ordering.

    Traffic is counted per message kind ({!traffic}) and in total; both feed
    the experiment reports (the "communication and synchronization overhead"
    visible in the total-replication results).

    Fault injection (the chaos harness) plugs in through {!set_fault}: a
    {!fault} decides drop/duplicate/delay per remote message at send time and
    re-checks link reachability at delivery time, so partitions cut even
    in-flight traffic. With no fault installed the dispatch path is the
    plain one-schedule fast path. *)

type t

(** How a network is configured: link latency and bandwidth. *)
module Config : sig
  type t = {
    base_latency_ms : float;  (** one-way latency floor *)
    per_kb_ms : float;  (** serialization cost per KiB *)
  }

  val lan : t
  (** The paper's testbed: a 100 Mbit/s switched LAN
      ([base_latency_ms = 0.35], [per_kb_ms = 0.08]), lossless. *)

  val wan : t
  (** The paper's future-work target ("evaluate DTX in WAN environments"):
      ~20 ms one-way latency, ~10 Mbit/s. *)

  val with_base_latency_ms : float -> t -> t
end

val of_config : sim:Dtx_sim.Sim.t -> Config.t -> t
(** The constructor. [Net.of_config ~sim Net.Config.lan] is the common
    case; derive variants with {!Config.with_base_latency_ms} or a record
    update. The network itself is lossless: message loss comes only from
    an installed {!fault}. *)

(** Which transport a message rides. [Reliable] models a retransmitting
    channel: exempt from fault-plan drop/duplicate decisions (partitions
    and crashes still cut it — no transport survives a severed link).
    [Unreliable] is raw datagram service: the coordinator ships operations
    on it and recovers via timeout + retransmission. *)
type channel = Reliable | Unreliable

type handler = src:int -> dst:int -> Msg.t -> unit

val set_handler : t -> handler -> unit
(** Register the cluster's message router: every {!dispatch}ed message is
    delivered to it after the link delay. Exactly one handler serves a
    network; a later call replaces the earlier one. *)

type dir =
  | Send  (** [dispatch] accepted the message (before any loss decision) *)
  | Drop  (** the fault plan or a mid-flight partition discarded it *)
  | Deliver  (** about to run the handler, at delivery time *)

type tracer = src:int -> dst:int -> dir -> Msg.t -> unit

val set_tracer : t -> tracer option -> unit
(** Install (or remove) a trace sink on {!dispatch}ed messages. [Deliver]
    fires inside the simulator event, immediately before the handler, so a
    tracer observes exactly the causal order the cluster does. A duplicated
    message produces one [Send] and one [Deliver] {e per copy}. [None] (the
    default) leaves dispatch unchanged beyond one immediate [match] per
    message. *)

(** A fault-plan hook (see [Dtx_fault.Injector]). [f_offsets] is consulted
    once per remote {!dispatch}: it returns the extra delay of every copy to
    deliver — [[]] drops the message, [[0.0]] delivers it normally,
    [[0.0; j]] duplicates it with the copy [j] ms late, [[j]] just delays
    it. [f_deliverable] is consulted again when each copy's delivery event
    fires (and for local deliveries), so partitions and crashes swallow
    in-flight traffic; a swallowed copy is traced and counted as a drop. *)
type fault = {
  f_offsets :
    time:float -> src:int -> dst:int -> channel -> Msg.t -> float list;
  f_deliverable : time:float -> src:int -> dst:int -> bool;
}

val set_fault : t -> fault option -> unit
(** Install (or remove) the fault hook. [None] (the default) restores the
    unfaulted fast path. *)

val dispatch : t -> src:int -> dst:int -> ?channel:channel -> Msg.t -> unit
(** Ship a protocol message: its {!Msg.size} is charged as traffic (counted
    per {!Msg.Kind}), and the registered handler receives it after the link
    delay. [src = dst] delivers at the next event with no delay and is not
    counted as network traffic. [channel] (default [Reliable]) picks the
    transport — commit/abort/ack/wake traffic rides [Reliable]; operation
    shipments and their status replies ride [Unreliable] and are guarded by
    coordinator retransmission.
    @raise Invalid_argument if no handler was registered. *)

val latency : t -> src:int -> dst:int -> bytes:int -> float
(** The delay a message would incur. *)

type delivery = {
  d_src : int;
  d_dst : int;
  d_msg : Msg.t;
}
(** One in-flight {!dispatch} copy: the payload a pending simulator event
    will hand the handler when it fires. *)

val pending_deliveries : t -> (Dtx_sim.Sim.event_id * delivery) list
(** Every in-flight message copy, keyed by its simulator event id (the same
    ids a {!Dtx_sim.Sim.set_chooser} hook is offered), in no particular
    order. This is how the schedule explorer distinguishes reorderable
    message deliveries from internal timers among the pending events.
    Entries leave the set when their event fires — even if a mid-flight
    partition then swallows the copy. *)

val messages : t -> int
(** Remote messages sent so far. *)

val dropped : t -> int
(** Messages lost to the installed {!fault}: fault-plan drops at send time
    plus mid-flight-partition drops at delivery time. *)

val bytes_sent : t -> int

(** Per-message-kind counters (remote {!dispatch} traffic only). *)
type traffic = {
  t_kind : Msg.Kind.t;
  t_sent : int;
  t_dropped : int;
  t_bytes : int;
}

val traffic : t -> traffic list
(** One row per kind that saw traffic, in {!Msg.Kind.all} order. *)

val pp_traffic : Format.formatter -> t -> unit
(** A small table of {!traffic} (the bench/example "message breakdown"). *)
