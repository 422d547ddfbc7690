(** The eight XDGL lock modes (paper §2) and their compatibility matrix.

    Node locks:
    - [SI] (shared into), [SA] (shared after), [SB] (shared before): shared
      locks taken by insertions on the node the new content attaches to; they
      forbid concurrent modification of that node but coexist with other
      shared locks.
    - [X] (exclusive): the node being modified.

    Tree locks:
    - [ST] (shared tree): protects a DataGuide subtree from any update.
    - [XT] (exclusive tree): protects a DataGuide subtree from reads {e and}
      updates.

    Intention locks (taken on every ancestor of a locked node):
    - [IS] for shared-mode locks, [IX] for exclusive-mode locks.

    The key incompatibility driving the paper's deadlock scenario (Fig. 6) is
    [IX] vs [ST]: a reader's subtree lock on an ancestor blocks a writer's
    intention lock there. *)

type t = IS | IX | SI | SA | SB | ST | X | XT

val all : t list
(** All eight modes. *)

val compatible : t -> t -> bool
(** [compatible held requested] — symmetric. Two different transactions may
    hold [m1] and [m2] on the same resource iff [compatible m1 m2]. *)

val index : t -> int
(** Dense index in [0..7], in the order of {!all}. *)

val of_index : int -> t
(** Inverse of {!index}. @raise Invalid_argument outside [0..7]. *)

val bit : t -> int
(** [1 lsl index m] — the mode's bit in a mode-set bitmask. *)

val conflict_mask : t -> int
(** Bitmask of every mode incompatible with [m] (derived from {!compatible}
    at startup): [conflict_mask m land bit m' <> 0] iff [not (compatible m
    m')]. *)

val mask_compatible : t -> held_mask:int -> bool
(** [mask_compatible m ~held_mask] — [m] is compatible with {e every} mode of
    the union bitmask [held_mask]: a single AND, the lock table's fast
    path. *)

val is_intention : t -> bool
(** [IS] and [IX]. *)

val is_exclusive : t -> bool
(** [X] and [XT] (and [IX] counts as exclusive-intent). *)

val intention_for : t -> t
(** The intention mode ancestors must carry for a lock of this mode: [IX]
    for exclusive modes, [IS] for shared ones; intention modes map to
    themselves. *)

val to_string : t -> string

val of_string : string -> t option

val pp : Format.formatter -> t -> unit
