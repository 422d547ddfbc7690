(** The paper's evaluation (§3.2): drivers that regenerate every figure,
    the qualitative-claims summary and the design ablations, behind one
    target table that [dtx_cli experiment] runs.

    Each figure driver returns {!figure}s: labelled series of (x, y) points
    that correspond one-to-one to the curves of the paper's chart. The
    [quick] flag shrinks client counts and database sizes (for tests and
    smoke runs) without changing the curves' qualitative shape.

    | Paper figure | Target | x-axis | y-axis |
    |--------------|--------|--------|--------|
    | Fig. 9  | ["fig9"]   | number of clients   | response time (2 charts: total/partial replication) |
    | Fig. 10 | ["fig10"]  | update txn %        | response time; number of deadlocks |
    | Fig. 11a| ["fig11a"] | base size (MB)      | response time; number of deadlocks |
    | Fig. 11b| ["fig11b"] | number of sites     | response time; number of deadlocks |
    | Fig. 12 | ["fig12"]  | time                | cumulative commits; concurrency degree |

    Only {!fig10} and {!fig12} are exported as functions: the tests read
    their points directly. *)

type series = {
  label : string;
  points : (float * float) list;
}

type figure = {
  id : string;  (** e.g. ["fig9-partial"] *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

val fig10 : quick:bool -> figure list
(** Response time and deadlock count vs update-transaction percentage
    (20–60 %), 50 clients, partial replication. Two figures. *)

val fig12 : quick:bool -> figure list
(** Cumulative committed transactions over time and concurrency degree over
    time, for both protocols (250 transactions, 4 sites, partial
    replication). Two figures. *)

val pp_figure : Format.formatter -> figure -> unit
(** Render a figure as an aligned text table (series as columns) followed by
    an ASCII chart. *)

val to_csv : figure -> string
(** The figure as CSV: header [x,<label>,...], one row per x value (missing
    points empty). Ready for gnuplot/spreadsheet plotting. *)

type target

val targets : (string * target) list
(** Every evaluation target by name: ["fig9"], ["fig10"], ["fig11a"],
    ["fig11b"], ["fig12"], ["all"] (every figure, in paper order),
    ["summary"] (the paper's qualitative claims checked against fresh runs
    of Figs. 9, 10 and 12) and ["ablation"] (design-choice ablations at one
    fixed size: detection period, protocol, retries, seed sensitivity,
    deadlock policy, commit protocol, LAN vs WAN, replica count). *)

val run : ?export:string -> quick:bool -> Format.formatter -> target -> bool
(** Run a target and print it. Figures print with {!pp_figure}; with
    [export] each is also written as [<export>/<figure id>.csv] (the
    directory is created first if missing). [quick] shrinks the figure runs
    and is ignored by ["ablation"]. [false] iff a ["summary"] row printed
    MISMATCH. @raise Sys_error if a CSV cannot be written. *)
