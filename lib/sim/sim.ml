type event_id = int

type candidate = { c_time : float; c_seq : event_id }

(* The dispatch queue is a binary min-heap over slots. Slot [s] holds one
   pending event: its key in [times.(s)] and [seqs.(s)], its action in
   [actions.(s)]. [heap.(0 .. size - 1)] orders the occupied slots by
   (time, seq), and [heap.(size ..)] lists the free ones. Sifts move slot
   numbers, which are plain ints: no write barrier per level, and keys are
   compared in flat arrays without following pointers. A free slot's
   action is [ignore], so a fired event's closure is not kept alive. With
   a chooser installed, the chooser picks among the pending events and the
   chosen one is removed in place. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable heap : int array;
  mutable size : int;
  mutable tracer : (time:float -> seq:int -> unit) option;
  mutable chooser : (candidate list -> event_id) option;
}

let create () =
  { clock = 0.0;
    next_seq = 0;
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    actions = Array.make 64 ignore;
    heap = Array.init 64 Fun.id;
    size = 0;
    tracer = None;
    chooser = None }

let set_tracer t tr = t.tracer <- tr

let set_chooser t c = t.chooser <- c

let now t = t.clock

(* Slot [a]'s event fires before slot [b]'s. *)
let before t a b =
  let ta = t.times.(a) and tb = t.times.(b) in
  ta < tb || (ta = tb && t.seqs.(a) < t.seqs.(b))

(* Both sifts move a hole instead of swapping: each level costs one write,
   and slot [s] is written once where it stops. *)
let rec sift_up t i s =
  if i = 0 then t.heap.(0) <- s
  else
    let p = (i - 1) / 2 in
    let ps = t.heap.(p) in
    if before t s ps then begin
      t.heap.(i) <- ps;
      sift_up t p s
    end
    else t.heap.(i) <- s

let rec sift_down t n i s =
  let l = (2 * i) + 1 in
  if l >= n then t.heap.(i) <- s
  else
    let r = l + 1 in
    let c = if r < n && before t t.heap.(r) t.heap.(l) then r else l in
    let cs = t.heap.(c) in
    if before t cs s then begin
      t.heap.(i) <- cs;
      sift_down t n c s
    end
    else t.heap.(i) <- s

let grow t =
  let n = Array.length t.heap in
  let extend a fill =
    Array.init (2 * n) (fun i -> if i < n then a.(i) else fill i)
  in
  t.times <- extend t.times (fun _ -> 0.0);
  t.seqs <- extend t.seqs (fun _ -> 0);
  t.actions <- extend t.actions (fun _ -> ignore);
  t.heap <- extend t.heap Fun.id

(* Take the slot at heap index [i] out of the heap and return it; the last
   occupied slot fills index [i] and moves up or down to restore heap
   order. The returned slot keeps its key and action until the next
   push. *)
let remove_at t i =
  let s = t.heap.(i) in
  let n = t.size - 1 in
  t.size <- n;
  let last = t.heap.(n) in
  if i < n then
    if i > 0 && before t last t.heap.((i - 1) / 2) then sift_up t i last
    else sift_down t n i last;
  t.heap.(n) <- s;
  s

let schedule_at t ~time action =
  let time = if time < t.clock then t.clock else time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.heap then grow t;
  let i = t.size in
  let s = t.heap.(i) in
  t.times.(s) <- time;
  t.seqs.(s) <- seq;
  t.actions.(s) <- action;
  t.size <- i + 1;
  sift_up t i s;
  seq

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let rec every t ~period ?start f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  let delay = match start with Some s -> s | None -> period in
  ignore
    (schedule t ~delay (fun () -> if f () then every t ~period ~start:period f))

let pending t = t.size

(* A chooser may fire events behind the timestamp frontier, so the clock
   only ever ratchets forward; without a chooser the slot's time is never
   behind the clock. The tracer sees the post-advance clock, keeping the
   observed tick sequence monotone either way. *)
let fire t s =
  let time = t.times.(s) and action = t.actions.(s) in
  t.actions.(s) <- ignore;
  if time > t.clock then t.clock <- time;
  (match t.tracer with
   | Some tr -> tr ~time:t.clock ~seq:t.seqs.(s)
   | None -> ());
  action ()

(* Every pending event as a candidate, sorted by (time, seq). *)
let candidates t =
  List.init t.size (fun i ->
      let s = t.heap.(i) in
      { c_time = t.times.(s); c_seq = t.seqs.(s) })
  |> List.sort compare

let rec index_of t seq i =
  if i >= t.size then
    invalid_arg "Sim.step: chooser picked a non-pending event"
  else if t.seqs.(t.heap.(i)) = seq then i
  else index_of t seq (i + 1)

let step t =
  if t.size = 0 then false
  else begin
    let i =
      match t.chooser with
      | None -> 0
      | Some choose -> index_of t (choose (candidates t)) 0
    in
    fire t (remove_at t i);
    true
  end

let run ?until ?max_events t =
  let below_max fired =
    match max_events with Some m -> fired < m | None -> true
  in
  let in_horizon tm = match until with Some u -> tm <= u | None -> true in
  let rec loop fired =
    if below_max fired && t.size > 0 && in_horizon t.times.(t.heap.(0))
    then begin
      ignore (step t);
      loop (fired + 1)
    end
  in
  loop 0
