(* Allocation-free probes. Both externals return unboxed values, so reading
   the clock or the allocation counter around a call adds no minor words to
   the call's own count. The clock stub ships with bechamel.monotonic_clock
   (CLOCK_MONOTONIC). *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

(* A per-layer meter: calls, nanoseconds and minor words accumulated over
   every [time] bracket. *)
type meter = {
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
}

let meter () = { calls = 0; ns = 0; words = 0.0 }

let time m f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  m.calls <- m.calls + 1;
  m.ns <- m.ns + (t1 - t0);
  m.words <- m.words +. (w1 -. w0);
  r

(* The cost of an empty bracket, in ns: the clock read itself plus the
   closure call. Replays subtract [calls * overhead] so that a layer made of
   many short calls is not charged for its own instrumentation. *)
let bracket_overhead_ns =
  lazy
    (let m = meter () in
     let n = 200_000 in
     for _ = 1 to n do
       time m ignore
     done;
     float_of_int m.ns /. float_of_int n)

let ns_net m =
  Float.max 0.0
    (float_of_int m.ns -. (float_of_int m.calls *. Lazy.force bracket_overhead_ns))
