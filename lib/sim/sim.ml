module Calqueue = Dtx_util.Calqueue

type event = {
  time : float;
  seq : int;
  action : unit -> unit;
}

type event_id = int

type candidate = { c_time : float; c_seq : event_id }

(* The dispatch queue is a calendar queue holding exactly the pending
   events: O(1) expected push and pop keep 10k-client scale runs flat. With
   a chooser installed, the chooser picks among the queue's contents and
   the chosen event is removed in place. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Calqueue.t;
  mutable tracer : (time:float -> seq:int -> unit) option;
  mutable chooser : (candidate list -> event_id) option;
}

let create () =
  { clock = 0.0;
    next_seq = 0;
    queue = Calqueue.create ~time:(fun e -> e.time) ~seq:(fun e -> e.seq) ();
    tracer = None;
    chooser = None }

let set_tracer t tr = t.tracer <- tr

let set_chooser t c = t.chooser <- c

let now t = t.clock

let schedule_at t ~time action =
  let time = if time < t.clock then t.clock else time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Calqueue.push t.queue { time; seq; action };
  seq

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let rec every t ~period ?start f =
  if period <= 0.0 then invalid_arg "Sim.every: period must be positive";
  let delay = match start with Some s -> s | None -> period in
  ignore
    (schedule t ~delay (fun () -> if f () then every t ~period ~start:period f))

let pending t = Calqueue.length t.queue

(* A chooser may fire events behind the timestamp frontier, so the clock
   only ever ratchets forward; without a chooser [ev.time >= t.clock] always
   holds and this is the old assignment. The tracer sees the post-advance
   clock, keeping the observed tick sequence monotone either way. *)
let fire t ev =
  if ev.time > t.clock then t.clock <- ev.time;
  (match t.tracer with
   | Some tr -> tr ~time:t.clock ~seq:ev.seq
   | None -> ());
  ev.action ()

let sorted_events t =
  Calqueue.to_list t.queue
  |> List.sort (fun a b ->
         let c = compare a.time b.time in
         if c <> 0 then c else compare a.seq b.seq)

let candidate ev = { c_time = ev.time; c_seq = ev.seq }

let candidates t = List.map candidate (sorted_events t)

let step t =
  match t.chooser with
  | None -> (
    match Calqueue.pop t.queue with
    | None -> false
    | Some ev ->
      fire t ev;
      true)
  | Some choose -> (
    match sorted_events t with
    | [] -> false
    | evs -> (
      let seq = choose (List.map candidate evs) in
      match List.find_opt (fun ev -> ev.seq = seq) evs with
      | Some ev ->
        Calqueue.remove t.queue ev;
        fire t ev;
        true
      | None -> invalid_arg "Sim.step: chooser picked a non-pending event"))

let next_time t =
  match Calqueue.peek t.queue with Some ev -> Some ev.time | None -> None

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
