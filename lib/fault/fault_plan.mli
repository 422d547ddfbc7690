(** Declarative fault plans: a seeded, simulated-time schedule of the
    failures a DTX cluster must survive.

    The paper leaves atomicity and durability as future work (§5); a plan
    is the scripted adversary that exercises those paths — message drop,
    duplication, reordering (delay jitter), network partitions with heal
    times, and site crash/restart events — all in virtual time, all
    reproducible from [seed]. {!Injector} turns a plan into live
    {!Dtx_net.Net} fault hooks and scheduled crash/restart events;
    [Dtx_check.Run.run] hands {!cut} to the checker as its partition
    oracle, to verify that severed links really deliver nothing. *)

type window = { from_ms : float; until_ms : float }
(** Half-open interval of simulated time: active at [t] iff
    [from_ms <= t < until_ms]. *)

val in_window : window -> float -> bool

type link = { l_src : int option; l_dst : int option }
(** A directed link selector; [None] matches any site. *)

val any_link : link

(** One unreliability episode on matching links. Drop and duplication
    apply only to {!Dtx_net.Net.Unreliable} traffic (the reliable channel
    models a retransmitting transport); delay and jitter apply to both —
    latency spares no one, and jittered copies overtake each other, which
    is how reordering arises. *)
type link_fault = {
  lf_window : window;
  lf_link : link;
  lf_kinds : Dtx_net.Msg.Kind.t list;  (** restrict to kinds; [[]] = all *)
  lf_drop_pct : int;  (** per-message loss probability, percent *)
  lf_dup_pct : int;  (** per-message duplication probability, percent *)
  lf_delay_ms : float;  (** fixed extra delay *)
  lf_jitter_ms : float;  (** uniform extra delay in [0, jitter) per copy *)
}

val fault_matches :
  link_fault -> time:float -> src:int -> dst:int -> Dtx_net.Msg.Kind.t -> bool

type partition = { p_window : window; p_group : int list }
(** During [p_window], traffic between [p_group] and its complement is
    severed in both directions (the window's end is the heal time). *)

type crash = {
  c_site : int;
  c_at_ms : float;
  c_restart_after_ms : float option;
      (** [None]: the site never comes back *)
}

type t = {
  seed : int;  (** drives every probabilistic decision of the injector *)
  horizon_ms : float;  (** the run length the plan was built for *)
  link_faults : link_fault list;
  partitions : partition list;
  crashes : crash list;
}

val empty : seed:int -> horizon_ms:float -> t

val lossy : seed:int -> drop_pct:int -> t
(** A plan whose only fault is an always-on loss of [drop_pct] percent of
    the {!Dtx_net.Net.Unreliable} traffic on every link: the lossy network
    the timeout and retransmission machinery recovers from. *)

val crashed : t -> time:float -> site:int -> bool
(** Is [site] down at [time] under this plan's crash schedule? *)

val cut : t -> time:float -> src:int -> dst:int -> bool
(** Is the [src -> dst] link severed at [time] — by a partition window or
    by either endpoint being crashed? (Local links are never cut.) This is
    both the injector's delivery gate and the checker's partition oracle. *)

val random : seed:int -> n_sites:int -> horizon_ms:float -> t
(** A seeded adversary: 1–3 link-fault episodes (drop 5–40%, dup 5–35%,
    delay + jitter), usually a partition, usually a crash. Every generated
    fault self-heals inside the horizon — partitions close and crashed
    sites restart — so a run's termination needs only the protocol's own
    retransmission and timeout machinery. *)

val pp : Format.formatter -> t -> unit
