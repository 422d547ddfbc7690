(** The seeded-fault registry: every fault the self-tests plant in the
    invariant checker, the schedule explorer and the certifier, declared
    once. An oracle counts only if it can be shown to reject a bad
    history; [dtx_cli selftest] and [test_faults] run every entry through
    {!assess}. Adding a fault is one {!all} entry plus its injection point
    (a {!tap}, or a [Dtx_cert.Cert.mutation] case). *)

type tap = Dtx_check.Checker.event -> Dtx_check.Checker.event option
(** Rewrites the events a checker sees, never the run itself: pass it as
    [Checker.attach ~mutate] or [Explore.config.tap]. *)

val skip_release : txn:int -> tap
(** Hides [txn]'s end-of-transaction lock releases and local finishes: the
    checker believes [txn] holds its locks forever, so [lock-compat] fires
    once a rival acquires a conflicting lock afterwards — in the explorer's
    reference scenario, in some delivery orders only. *)

val skip_one_release : txn:int -> tap
(** Hides the first of [txn]'s end-of-transaction lock releases but not its
    local finish: the checker sees [txn] finish while still holding that
    lock, which [lock-balance] must flag. Stateful, so build one per run. *)

val commit_reorder : txn:int -> tap
(** Hides the delivery of [txn]'s yes votes: under 2PC its Commit then
    precedes a complete prepare round, which [2pc-order] must flag. *)

type finding = { check : string; detail : string }
(** One violation, tagged with the check that reported it. *)

type t = {
  name : string;
  check : string;
      (** the check that must catch the fault: a checker invariant
          ([mode-lattice], [lock-compat], [lock-balance], [2pc-order]) or a
          certifier pass ([lock-coverage], [fsm], [caps]) *)
  run : inject:bool -> finding list;
      (** everything the checks found; [~inject:false] is the fault-free
          twin *)
}

val all : t list

val assess : t -> (string, string) result
(** [Ok verdict] when the injected run has a finding from the entry's check
    and the fault-free twin finds nothing; [Error] says which half
    failed. *)
