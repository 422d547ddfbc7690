module Calqueue = Dtx_util.Calqueue

type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
}

type event_id = int

type candidate = { c_time : float; c_seq : event_id }

(* [live] maps the seq of every still-queued event to the event itself, so
   cancel can mark the event in place and a cancel aimed at an already-fired
   (or unknown) id is a true no-op — nothing is ever retained for ids that
   are no longer in the queue.

   The dispatch queue is a calendar queue: O(1) expected push and pop keep
   10k-client scale runs flat. With a chooser installed it is demoted to a
   hint: the chooser picks any live event, [fire] drops it from [live], and
   later pops skip entries whose seq is no longer live (lazy deletion). *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Calqueue.t;
  live : (int, event) Hashtbl.t;
  mutable cancelled_pending : int;
  mutable tracer : (time:float -> seq:int -> unit) option;
  mutable chooser : (candidate list -> event_id) option;
}

(* Consistency checks (queue contents vs the [live] table) are O(pending)
   per compaction, so they hide behind an env flag. *)
let debug_checks =
  match Sys.getenv_opt "DTX_SIM_DEBUG" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let create () =
  { clock = 0.0;
    next_seq = 0;
    queue = Calqueue.create ~time:(fun e -> e.time) ~seq:(fun e -> e.seq) ();
    live = Hashtbl.create 16;
    cancelled_pending = 0;
    tracer = None;
    chooser = None }

let set_tracer t tr = t.tracer <- tr

let set_chooser t c = t.chooser <- c

let now t = t.clock

let schedule_at t ~time action =
  let time = if time < t.clock then t.clock else time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ev = { time; seq; action; cancelled = false } in
  Calqueue.push t.queue ev;
  Hashtbl.replace t.live seq ev;
  seq

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

(* Compaction: physically drop cancelled (and chooser-retired) entries from
   the queue instead of letting lazy deletion accumulate them. A cancelled
   event compacted away neither ticks the tracer nor ratchets the clock when
   its time comes — the same silent retirement [candidates] has always
   applied on the chooser path, and nothing downstream observes it. *)
let check_consistency t =
  if debug_checks then begin
    if Calqueue.length t.queue <> Hashtbl.length t.live then
      failwith
        (Printf.sprintf "Sim: queue/live desync after compaction: %d vs %d"
           (Calqueue.length t.queue) (Hashtbl.length t.live));
    Hashtbl.iter
      (fun _ ev ->
        if ev.cancelled then failwith "Sim: cancelled event survived compaction")
      t.live
  end

let compact t =
  let dead =
    Hashtbl.fold
      (fun seq ev acc -> if ev.cancelled then seq :: acc else acc)
      t.live []
  in
  List.iter (fun seq -> Hashtbl.remove t.live seq) dead;
  t.cancelled_pending <- 0;
  Calqueue.filter_in_place (fun ev -> Hashtbl.mem t.live ev.seq) t.queue;
  check_consistency t

(* Compact once the cancelled population passes half the live count (and a
   floor that keeps tiny test queues byte-for-byte untouched). *)
let maybe_compact t =
  if t.cancelled_pending >= 64
     && t.cancelled_pending * 2 > Hashtbl.length t.live
  then compact t

let cancel t id =
  match Hashtbl.find_opt t.live id with
  | Some ev when not ev.cancelled ->
    ev.cancelled <- true;
    t.cancelled_pending <- t.cancelled_pending + 1;
    maybe_compact t
  | Some _ | None -> ()

let cancelled_backlog t = t.cancelled_pending

let rec every t ~period ?start f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  let delay = match start with Some s -> s | None -> period in
  ignore
    (schedule t ~delay (fun () -> if f () then every t ~period ~start:period f))

let pending t = Hashtbl.length t.live

(* A chooser may fire events behind the timestamp frontier, so the clock
   only ever ratchets forward; without a chooser [ev.time >= t.clock] always
   holds and this is the old assignment. The tracer sees the post-advance
   clock, keeping the observed tick sequence monotone either way. *)
let fire t ev =
  if ev.time > t.clock then t.clock <- ev.time;
  (match t.tracer with
   | Some tr -> tr ~time:t.clock ~seq:ev.seq
   | None -> ());
  Hashtbl.remove t.live ev.seq;
  if ev.cancelled then t.cancelled_pending <- t.cancelled_pending - 1
  else ev.action ()

(* Pop queue entries until one is still live (lazy deletion of events a
   chooser already fired out of band). *)
let rec pop_live t =
  match Calqueue.pop t.queue with
  | None -> None
  | Some ev -> if Hashtbl.mem t.live ev.seq then Some ev else pop_live t

let candidates t =
  (* Cancelled events never reach a chooser: retire them here so a chosen
     schedule branches only on events that will actually run. *)
  let dead =
    Hashtbl.fold (fun seq ev acc -> if ev.cancelled then seq :: acc else acc)
      t.live []
  in
  List.iter
    (fun seq ->
      Hashtbl.remove t.live seq;
      t.cancelled_pending <- t.cancelled_pending - 1)
    dead;
  Hashtbl.fold (fun _ ev acc -> { c_time = ev.time; c_seq = ev.seq } :: acc)
    t.live []
  |> List.sort (fun a b ->
         let c = compare a.c_time b.c_time in
         if c <> 0 then c else compare a.c_seq b.c_seq)

let step t =
  match t.chooser with
  | None -> (
    match pop_live t with
    | None -> false
    | Some ev ->
      fire t ev;
      true)
  | Some choose -> (
    match candidates t with
    | [] -> false
    | cands -> (
      let seq = choose cands in
      match Hashtbl.find_opt t.live seq with
      | Some ev ->
        fire t ev;
        true
      | None -> invalid_arg "Sim.step: chooser picked a dead event"))

let next_time t =
  match t.chooser with
  | None -> (
    (* peek through stale queue entries without losing the live one *)
    let rec peek () =
      match Calqueue.peek t.queue with
      | None -> None
      | Some ev ->
        if Hashtbl.mem t.live ev.seq then Some ev.time
        else begin
          ignore (Calqueue.pop t.queue);
          peek ()
        end
    in
    peek ())
  | Some _ -> (
    match candidates t with [] -> None | c :: _ -> Some c.c_time)

let run ?until ?max_events t =
  let fired = ref 0 in
  let continue () =
    match max_events with Some m -> !fired < m | None -> true
  in
  let in_horizon tm =
    match until with Some u -> tm <= u | None -> true
  in
  let rec loop () =
    if continue () then
      match next_time t with
      | Some tm when in_horizon tm ->
        if step t then begin
          incr fired;
          loop ()
        end
      | _ -> ()
  in
  loop ()
