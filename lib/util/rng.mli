(** Deterministic pseudo-random numbers (splitmix64). Every stochastic choice
    in the simulation draws from one of these generators so that experiments
    are exactly reproducible from a seed, independent of the platform's
    [Random] state. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream (useful to
    give each simulated client its own stream). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool

val pct : t -> int -> bool
(** [pct t p] is [true] with probability [p]% (p in 0..100). *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element. @raise Invalid_argument on an
    empty array. *)

val pick_list : t -> 'a list -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

