(* Calendar queue (Brown 1988). The array length is always a power of two
   so the bucket index is one mask. Each bucket is a time-sorted list of
   {e groups}, one per distinct timestamp; a group's elements sit in a FIFO
   in ascending [seq] order. Grouping is what survives the simulator's
   heavily tied timestamps: thousands of events at one instant cost O(1)
   each to insert (append to the group's queue), where a flat sorted bucket
   would degrade to O(n) per insert.

   Every placement decision derives from ONE function of a timestamp — its
   absolute window number [win tm = floor (tm / width)], an integer. The
   bucket is [win tm land mask]; the scan walks window numbers and accepts
   a bucket head iff the head's own window number equals the scanned one.
   Deriving both sides from the same monotone integer is what makes the
   dispatch order {e exactly} (time, seq): mixing [Float.rem]-based binning
   with incrementally-added window tops (the textbook formulation) lets the
   two computations disagree by one window near a bucket boundary, and once
   the calendar wraps laps such an event can fire after a later-timed one.

   A full fruitless lap falls back to a direct min-scan over bucket heads
   (the classic "jump" for sparse, far-future events). All sizing is
   content-determined: no randomness, no wall clock. *)

type 'a group = {
  g_time : float;
  g_q : 'a Queue.t;  (* non-empty, ascending seq *)
  mutable g_last : int;  (* max seq ever enqueued — the fast-append check *)
}

type 'a t = {
  time : 'a -> float;
  seq : 'a -> int;
  mutable buckets : 'a group list array;
  mutable width : float;  (* window width; > 0, finite *)
  mutable count : int;  (* elements *)
  mutable groups : int;  (* distinct timestamps, across all buckets *)
  mutable cur_win : int;
      (* scan frontier: absolute window number, <= the window of every
         pending event; [parked] forces the next access to direct-scan *)
}

let min_buckets = 16

let parked = min_int

let create ~time ~seq () =
  { time;
    seq;
    buckets = Array.make min_buckets [];
    width = 1.0;
    count = 0;
    groups = 0;
    cur_win = parked }

let length q = q.count

(* Absolute window number of a timestamp. Monotone in [tm] (float division
   and floor both are), which is all the ordering proof needs. *)
let win q tm = int_of_float (Float.floor (tm /. q.width))

let bucket_of q tm = win q tm land (Array.length q.buckets - 1)

(* Add to an existing group. Pushes within one timestamp almost always
   arrive in ascending seq (the simulator numbers events globally), so the
   common case is a plain FIFO append; an out-of-order seq rebuilds the
   small queue with an in-order insert, keeping the ascending-seq
   invariant in full generality. *)
let group_add q g x =
  let sx = q.seq x in
  if sx >= g.g_last || Queue.is_empty g.g_q then begin
    Queue.add x g.g_q;
    if sx > g.g_last then g.g_last <- sx
  end
  else begin
    let items = List.rev (Queue.fold (fun acc y -> y :: acc) [] g.g_q) in
    let rec ins = function
      | [] -> [ x ]
      | y :: rest -> if sx < q.seq y then x :: y :: rest else y :: ins rest
    in
    Queue.clear g.g_q;
    List.iter (fun y -> Queue.add y g.g_q) (ins items)
  end

let singleton_group q x =
  let gq = Queue.create () in
  Queue.add x gq;
  { g_time = q.time x; g_q = gq; g_last = q.seq x }

let bucket_add q i x =
  let tm = q.time x in
  let rec go = function
    | [] ->
      q.groups <- q.groups + 1;
      [ singleton_group q x ]
    | g :: rest ->
      if g.g_time = tm then begin
        group_add q g x;
        g :: rest
      end
      else if tm < g.g_time then begin
        q.groups <- q.groups + 1;
        singleton_group q x :: g :: rest
      end
      else g :: go rest
  in
  q.buckets.(i) <- go q.buckets.(i)

(* Whole-group reinsertion (resize path): group times are globally unique,
   so this never merges — it only finds the sorted slot. *)
let bucket_add_group q i g =
  let rec go = function
    | [] -> [ g ]
    | g' :: rest ->
      if g.g_time < g'.g_time then g :: g' :: rest else g' :: go rest
  in
  q.buckets.(i) <- go q.buckets.(i)

(* Rebuild with [n'] buckets and a width matching the current population:
   Brown's rule — twice the mean gap between the {e earliest} distinct
   timestamps, so roughly half the windows near the head hold one. A
   global min-to-max spread would mis-size skewed queues (the simulator's
   steady state: thousands of events just ahead of the clock plus a few
   far-future timers would stretch the windows until hundreds of dense
   groups pile into each bucket). Far-future events simply wrap extra
   laps, which the window scan handles. Degenerate spreads (all-equal
   times) get width 1.0. *)
let resize q n' =
  let gs = Array.fold_left (fun acc b -> List.rev_append b acc) [] q.buckets in
  let w =
    if q.groups <= 1 then 1.0
    else begin
      let times = List.sort compare (List.map (fun g -> g.g_time) gs) in
      let k = min 32 (q.groups - 1) in
      let t0 = List.hd times in
      let tk = List.nth times k in
      (tk -. t0) /. float_of_int k *. 2.0
    end
  in
  q.width <- (if Float.is_finite w && w > 1e-9 then w else 1e-9);
  q.buckets <- Array.make n' [];
  List.iter (fun g -> bucket_add_group q (bucket_of q g.g_time) g) gs;
  (* Park the scan state; the next access direct-searches once and
     re-anchors the frontier on the true minimum. *)
  q.cur_win <- parked

let push q x =
  let tm = q.time x in
  bucket_add q (bucket_of q tm) x;
  q.count <- q.count + 1;
  let j = win q tm in
  if q.count = 1 then q.cur_win <- j (* first event anchors the calendar *)
  else if q.cur_win <> parked && j < q.cur_win then
    (* push behind the frontier: rewind so the scan can't miss it *)
    q.cur_win <- j;
  if q.groups > 2 * Array.length q.buckets then
    resize q (2 * Array.length q.buckets)

(* Find the bucket holding the minimal element; commits the frontier so the
   follow-up pop (or the next locate) starts on target.

   Exactness: windows [cur_win .. J-1] are proven empty as the scan passes
   them — window J' has events only in bucket [J' land mask], that bucket's
   head is its time-minimal group, and a head whose own window is not J'
   puts every event of the bucket in a window > J' (all are >= cur_win and
   congruent mod the bucket count). Acceptance at J therefore finds the
   global (time, seq) minimum: any pending event in a later window has a
   later-or-equal time ([win] is monotone), and equal times share a window,
   hence a bucket, hence one seq-ordered group. *)
let locate q =
  if q.count = 0 then None
  else begin
    let n = Array.length q.buckets in
    let mask = n - 1 in
    let direct () =
      let best = ref None in
      Array.iteri
        (fun i b ->
          match b with
          | [] -> ()
          | g :: _ -> (
            match !best with
            | Some (_, bg) when
                bg.g_time < g.g_time
                || (bg.g_time = g.g_time
                    && q.seq (Queue.peek bg.g_q) <= q.seq (Queue.peek g.g_q))
              -> ()
            | _ -> best := Some (i, g)))
        q.buckets;
      match !best with
      | None -> assert false (* count > 0 *)
      | Some (i, g) ->
        q.cur_win <- win q g.g_time;
        i
    in
    if q.cur_win = parked then Some (direct ())
    else begin
      let rec scan k =
        if k = n then direct ()
        else
          let j = q.cur_win + k in
          match q.buckets.(j land mask) with
          | g :: _ when win q g.g_time = j ->
            q.cur_win <- j;
            j land mask
          | _ -> scan (k + 1)
      in
      Some (scan 0)
    end
  end

let peek q =
  match locate q with
  | None -> None
  | Some i -> (
    match q.buckets.(i) with
    | g :: _ -> Some (Queue.peek g.g_q)
    | [] -> assert false)

(* Halve the calendar once it is mostly empty days. *)
let shrink q =
  let n = Array.length q.buckets in
  if n > min_buckets && q.groups * 8 < n then resize q (n / 2)

let pop q =
  match locate q with
  | None -> None
  | Some i -> (
    match q.buckets.(i) with
    | [] -> assert false
    | g :: rest ->
      let x = Queue.take g.g_q in
      if Queue.is_empty g.g_q then begin
        q.buckets.(i) <- rest;
        q.groups <- q.groups - 1
      end;
      q.count <- q.count - 1;
      shrink q;
      Some x)

(* Removing an element leaves every other one where it was, so the scan
   frontier stays a lower bound on the pending windows. *)
let remove q x =
  let tm = q.time x and sx = q.seq x in
  let i = bucket_of q tm in
  let rec go = function
    | [] -> invalid_arg "Calqueue.remove: element not queued"
    | g :: rest when g.g_time = tm -> (
      let items = Queue.fold (fun acc y -> y :: acc) [] g.g_q in
      match List.partition (fun y -> q.seq y = sx) items with
      | [], _ -> invalid_arg "Calqueue.remove: element not queued"
      | _, [] ->
        q.groups <- q.groups - 1;
        rest
      | _, kept ->
        Queue.clear g.g_q;
        List.iter (fun y -> Queue.add y g.g_q) (List.rev kept);
        g :: rest)
    | g :: rest -> g :: go rest
  in
  q.buckets.(i) <- go q.buckets.(i);
  q.count <- q.count - 1;
  shrink q

let to_list q =
  Array.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc g -> Queue.fold (fun acc y -> y :: acc) acc g.g_q)
        acc b)
    [] q.buckets
