(** Static checks on the XDGL mode lattice (paper §2, Fig. 4).

    Everything downstream — the lock table's bitmask fast path, the
    checker's grant-compatibility mirror, the intention escort — assumes
    the compatibility matrix has a handful of structural properties. This
    module verifies them exhaustively over the 8×8 mode square, so a bad
    edit to {!Dtx_locks.Mode} fails [make analyze] (and the build's test
    gate) instead of silently weakening isolation. *)

val check : unit -> (unit, string list) result
(** Check the live {!Dtx_locks.Mode} functions: compatibility symmetry,
    [conflict_mask] agreement on all 64 pairs, X/XT total conflict, IS
    minimality, and the intention hierarchy (IS ≤ IX; for every mode [m],
    conflicts([intention_for m]) ⊆ conflicts([m])). *)

val check_with :
  compat:(Dtx_locks.Mode.t -> Dtx_locks.Mode.t -> bool) ->
  conflict_mask:(Dtx_locks.Mode.t -> int) ->
  intention_for:(Dtx_locks.Mode.t -> Dtx_locks.Mode.t) ->
  unit ->
  (unit, string list) result
(** Same checks over caller-supplied functions — the self-test feeds
    deliberately corrupted matrices through this to prove the check can
    fail. *)

val st_ix_flipped : Dtx_locks.Mode.t -> Dtx_locks.Mode.t -> bool
(** {!Dtx_locks.Mode.compatible} with one cell flipped: ST and IX — the
    conflict behind the paper's Fig. 6 deadlock — made compatible. The
    seeded lattice fault of the self-tests ({!check_with} must reject it)
    and of the certifier's collision check. *)
