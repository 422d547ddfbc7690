(** XDGL with {e value locks} — the logical-lock refinement of the original
    XDGL paper (Pleshachkov et al. lock (node, value) pairs so that
    predicate readers and writers only collide when they actually touch the
    same value).

    The structural rules are {!Xdgl_rules.requests} over
    {!Xdgl_rules.guide_view}; the differences:
    - an [Eq] predicate takes ST on the {e (DataGuide node, literal)} value
      resource (plus IS on the plain node and its ancestors) instead of ST
      on the whole node — readers of [@id = "4"] and [@id = "5"] share
      nothing;
    - an update additionally takes X on the value resources it invalidates:
      the old and new text of changed nodes, and the text of every node it
      inserts or removes (computed against the replica, which is safe
      because lock acquisition and execution are atomic at a site);
    - writers keep IX on the plain node, so structural (non-predicate)
      readers still conflict exactly as in XDGL.

    Expected profile (see the bench ablation): XDGL's cost with fewer
    predicate-induced conflicts, hence fewer deadlocks on the paper's
    id-lookup-heavy workload. *)

val requests :
  Dtx_dataguide.Dataguide.t ->
  Dtx_xml.Doc.t ->
  Dtx_update.Op.t ->
  (Dtx_locks.Table.resource * Dtx_locks.Mode.t) list
(** The deduplicated lock set (structural + value resources). *)
