(** Binary min-heaps, parameterised by an explicit comparison. The
    reference oracle of the calendar queue's differential test. All
    operations are the standard O(log n) / O(1). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** [peek h] is the smallest element without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the smallest element. *)
