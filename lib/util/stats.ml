type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summarize xs =
  match xs with
  | [] ->
    { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.;
      p50 = 0.; p95 = 0.; p99 = 0. }
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let m = mean xs in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
      /. float_of_int n
    in
    { count = n;
      mean = m;
      stddev = sqrt var;
      min = a.(0);
      max = a.(n - 1);
      p50 = percentile a 0.5;
      p95 = percentile a 0.95;
      p99 = percentile a 0.99 }

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f"
    s.count s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max

module Timeline = struct
  type t = {
    bucket : float;
    table : (int, float ref) Hashtbl.t;
  }

  let create ~bucket =
    if bucket <= 0.0 then invalid_arg "Timeline.create";
    { bucket; table = Hashtbl.create 64 }

  let slot t time = int_of_float (time /. t.bucket)

  let add t ~time v =
    let k = slot t time in
    match Hashtbl.find_opt t.table k with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t.table k (ref v)

  let incr t ~time = add t ~time 1.0

  let buckets t =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, v) -> (float_of_int k *. t.bucket, v))

  let cumulative t =
    let raw =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    match raw with
    | [] -> []
    | (first, _) :: _ ->
      let last = List.fold_left (fun _ (k, _) -> k) first raw in
      let tbl = Hashtbl.create 64 in
      List.iter (fun (k, v) -> Hashtbl.replace tbl k v) raw;
      let acc = ref 0.0 in
      let out = ref [] in
      for k = first to last do
        (match Hashtbl.find_opt tbl k with
         | Some v -> acc := !acc +. v
         | None -> ());
        out := (float_of_int k *. t.bucket, !acc) :: !out
      done;
      List.rev !out
end
