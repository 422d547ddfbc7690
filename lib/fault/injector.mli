(** Turn a {!Fault_plan} into live machinery on a running cluster.

    {!install} does two things: it registers a {!Dtx_net.Net.set_fault}
    hook that consults the plan (and the injector's own seeded stream) for
    every remote dispatch — drop, duplicate, delay/jitter, partition
    enforcement at both send and delivery time — and it schedules the
    plan's site crash/restart events on the simulator
    ({!Dtx.Cluster.crash_site} / {!Dtx.Cluster.restart_site}, the latter
    running WAL-replay recovery). Call before {!Dtx_sim.Sim.run}. *)

val install : Dtx.Cluster.t -> Fault_plan.t -> unit
(** Hook the plan into the cluster's network and schedule its crashes.
    Equal plans (same seed) produce identical fault streams. *)
