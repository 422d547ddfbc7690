module Sim = Dtx_sim.Sim

module Config = struct
  type t = {
    base_latency_ms : float;
    per_kb_ms : float;
  }

  let lan = { base_latency_ms = 0.35; per_kb_ms = 0.08 }

  let wan = { base_latency_ms = 20.0; per_kb_ms = 0.8 }

  let with_base_latency_ms v t = { t with base_latency_ms = v }
end

type channel = Reliable | Unreliable

type handler = src:int -> dst:int -> Msg.t -> unit

type dir = Send | Drop | Deliver

type tracer = src:int -> dst:int -> dir -> Msg.t -> unit

(* The chaos hook: [f_offsets] decides, at send time, when each copy of a
   remote message is delivered ([] drops it, [0.0] is a normal delivery, two
   entries duplicate it, a positive entry delays that copy); [f_deliverable]
   is consulted again when a copy's delivery event fires, so a partition
   that forms while the message is in flight still cuts it. *)
type fault = {
  f_offsets : time:float -> src:int -> dst:int -> channel -> Msg.t -> float list;
  f_deliverable : time:float -> src:int -> dst:int -> bool;
}

type delivery = {
  d_src : int;
  d_dst : int;
  d_msg : Msg.t;
}

type t = {
  sim : Sim.t;
  base_latency_ms : float;
  per_kb_ms : float;
  mutable messages : int;
  mutable bytes : int;
  mutable dropped : int;
  sent_by_kind : int array;
  dropped_by_kind : int array;
  bytes_by_kind : int array;
  mutable handler : handler option;
  mutable tracer : tracer option;
  mutable fault : fault option;
  (* Every in-flight [dispatch] copy, keyed by its simulator event id, so a
     schedule explorer can tell which pending events are message deliveries
     (and to whom). Entries retire when the delivery event fires — including
     copies a mid-flight partition then swallows. *)
  pending : (Sim.event_id, delivery) Hashtbl.t;
}

let of_config ~sim (c : Config.t) =
  { sim;
    base_latency_ms = c.Config.base_latency_ms;
    per_kb_ms = c.Config.per_kb_ms;
    messages = 0;
    bytes = 0;
    dropped = 0;
    sent_by_kind = Array.make Msg.Kind.count 0;
    dropped_by_kind = Array.make Msg.Kind.count 0;
    bytes_by_kind = Array.make Msg.Kind.count 0;
    handler = None;
    tracer = None;
    fault = None;
    pending = Hashtbl.create 16 }

let set_handler t h = t.handler <- Some h

let set_tracer t tr = t.tracer <- tr

let set_fault t f = t.fault <- f

let latency t ~src ~dst ~bytes =
  if src = dst then 0.0
  else t.base_latency_ms +. (t.per_kb_ms *. (float_of_int bytes /. 1024.0))

let dispatch t ~src ~dst ?(channel = Reliable) msg =
  let h =
    match t.handler with
    | Some h -> h
    | None -> invalid_arg "Net.dispatch: no handler registered"
  in
  let bytes = Msg.size msg in
  let i = Msg.Kind.index (Msg.kind msg) in
  let delay = latency t ~src ~dst ~bytes in
  if src <> dst then begin
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + bytes;
    t.sent_by_kind.(i) <- t.sent_by_kind.(i) + 1;
    t.bytes_by_kind.(i) <- t.bytes_by_kind.(i) + bytes
  end;
  (match t.tracer with
   | Some tr -> tr ~src ~dst Send msg
   | None -> ());
  let count_drop () =
    t.dropped <- t.dropped + 1;
    t.dropped_by_kind.(i) <- t.dropped_by_kind.(i) + 1;
    match t.tracer with
    | Some tr -> tr ~src ~dst Drop msg
    | None -> ()
  in
  let deliver () =
    let k =
      match t.tracer with
      | None -> fun () -> h ~src ~dst msg
      | Some tr ->
        fun () ->
          tr ~src ~dst Deliver msg;
          h ~src ~dst msg
    in
    match t.fault with
    | None -> k
    | Some f ->
      (* Re-check the link when the copy actually arrives: a partition
         (or crash) that formed in flight swallows it. *)
      fun () ->
        if f.f_deliverable ~time:(Sim.now t.sim) ~src ~dst then k ()
        else count_drop ()
  in
  let schedule_delivery delay =
    let body = deliver () in
    let id = ref None in
    let seq =
      Sim.schedule t.sim ~delay (fun () ->
          (match !id with
           | Some seq -> Hashtbl.remove t.pending seq
           | None -> ());
          body ())
    in
    id := Some seq;
    Hashtbl.replace t.pending seq { d_src = src; d_dst = dst; d_msg = msg }
  in
  match t.fault with
  | None -> schedule_delivery delay
  | Some f -> (
    (* Local deliveries never cross a link, so send-time faults do not
       apply; the delivery-time check still guards a crashed site. *)
    let offsets =
      if src = dst then [ 0.0 ]
      else f.f_offsets ~time:(Sim.now t.sim) ~src ~dst channel msg
    in
    match offsets with
    | [] -> count_drop ()
    | offsets ->
      List.iter
        (fun off -> schedule_delivery (delay +. Float.max 0.0 off))
        offsets)

let pending_deliveries t =
  Hashtbl.fold (fun seq d acc -> (seq, d) :: acc) t.pending []

let messages t = t.messages

let dropped t = t.dropped

let bytes_sent t = t.bytes

type traffic = {
  t_kind : Msg.Kind.t;
  t_sent : int;
  t_dropped : int;
  t_bytes : int;
}

let traffic t =
  List.filter_map
    (fun k ->
      let i = Msg.Kind.index k in
      if t.sent_by_kind.(i) = 0 && t.dropped_by_kind.(i) = 0 then None
      else
        Some
          { t_kind = k;
            t_sent = t.sent_by_kind.(i);
            t_dropped = t.dropped_by_kind.(i);
            t_bytes = t.bytes_by_kind.(i) })
    Msg.Kind.all

let pp_traffic ppf t =
  let rows = traffic t in
  if rows = [] then Format.fprintf ppf "(no typed traffic)"
  else begin
    Format.fprintf ppf "%-12s %8s %8s %10s" "message" "sent" "dropped" "bytes";
    List.iter
      (fun r ->
        Format.fprintf ppf "@\n%-12s %8d %8d %10d"
          (Msg.Kind.to_string r.t_kind)
          r.t_sent r.t_dropped r.t_bytes)
      rows
  end
