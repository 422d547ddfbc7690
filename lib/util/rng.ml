type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  (* Keep 62 bits so the value always fits OCaml's 63-bit native int as a
     non-negative number. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0,1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. (bits /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pct t p = int t 100 < p

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick";
  a.(int t (Array.length a))

let pick_list t l = pick t (Array.of_list l)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

