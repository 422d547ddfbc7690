(** Growable arrays (OCaml 5.1 has no [Dynarray]; this is the small subset the
    rest of the code base needs). Elements live in a contiguous array that is
    doubled on overflow, so [push] is amortised O(1) and random access O(1). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element. @raise Invalid_argument if out of range. *)

val set : 'a t -> int -> 'a -> unit
(** [set v i x] replaces the [i]-th element. @raise Invalid_argument if out of
    range. *)

val push : 'a t -> 'a -> unit
(** [push v x] appends [x] at the end. *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, or [None] if empty. *)

val clear : 'a t -> unit
(** [clear v] removes every element (keeps the backing storage). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val find_opt : ('a -> bool) -> 'a t -> 'a option

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val to_array : 'a t -> 'a array
