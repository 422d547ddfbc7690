(* The traced round: the same run as an untraced round, with the cluster's
   unified tracer and history attached at the [?instrument] hook. It records
   the inputs every per-layer replay needs, and nothing is timed here except
   the round itself (for the tracing overhead).

   - every dispatched message ([Tr_net] Send), for the codec replay;
   - every shipment as delivered, and every shipment's status reply, keyed
     by (site, txn, seq);
   - the participants' calls into their [Site], in the order they happened:
     [Executed] precedes a shipment's [Site.process_operation] calls,
     [Undone] follows [Site.undo_operation], [Finished] follows
     [Site.finish_txn] — the participant is the only caller of all three;
   - the detector's [Wfg_reply] edge sets, in delivery order;
   - the time of every simulator event, with the queue depth;
   - each site's documents as they were before the first transaction. *)

module Cluster = Dtx.Cluster
module Site = Dtx.Site
module Participant = Dtx.Participant
module Msg = Dtx_net.Msg
module Net = Dtx_net.Net
module Sim = Dtx_sim.Sim
module Protocol = Dtx_protocol.Protocol
module Doc = Dtx_xml.Doc
module Vec = Dtx_util.Vec

type site_call =
  | Exec of { site : int; txn : int; seq : int }
  | Undo of { site : int; txn : int; op_index : int; attempt : int }
  | Finish of { site : int; txn : int; commit : bool }

type t = {
  round : Round.t;
  pristine : Doc.t list array;  (** per site, cloned at the hook *)
  sent : (int * int * Msg.t) Vec.t;  (** (src, dst, msg) per dispatch *)
  ships : (int * int * int, int * Msg.shipment list) Hashtbl.t;
      (** (site, txn, seq) -> (attempt, operations) *)
  statuses : (int * int * int, int * Msg.op_status) Hashtbl.t;
      (** (site, txn, seq) -> (granted prefix, status) *)
  calls : site_call Vec.t;
  wfg_replies : (int * (int * int) list) Vec.t;  (** (replying site, edges) *)
  tick_times : float Vec.t;
  mean_pending : float;  (** mean simulator queue depth over the ticks *)
  serializable : (unit, string) result;
}

let site_docs (site : Site.t) =
  List.filter_map
    (fun name -> Option.map Doc.clone (Protocol.doc site.Site.protocol name))
    (Protocol.docs site.Site.protocol)

let run p =
  let sent = Vec.create () in
  let ships = Hashtbl.create 4096 in
  let statuses = Hashtbl.create 4096 in
  let calls = Vec.create () in
  let wfg_replies = Vec.create () in
  let tick_times = Vec.create () in
  let pending_sum = ref 0.0 in
  let pristine = ref [||] in
  let on_event sim ~time = function
    | Cluster.Tr_tick ->
      Vec.push tick_times time;
      pending_sum := !pending_sum +. float_of_int (Sim.pending sim)
    | Cluster.Tr_net { src; dst; dir = Net.Send; msg } -> (
      Vec.push sent (src, dst, msg);
      match msg with
      | Msg.Op_status { txn; seq; granted; status; _ } ->
        Hashtbl.replace statuses (src, txn, seq) (granted, status)
      | _ -> ())
    | Cluster.Tr_net { dst; dir = Net.Deliver; msg; src } -> (
      match msg with
      | Msg.Op_ship { txn; attempt; seq; ops } ->
        Hashtbl.replace ships (dst, txn, seq) (attempt, ops)
      | Msg.Wfg_reply { edges } -> Vec.push wfg_replies (src, edges)
      | _ -> ())
    | Cluster.Tr_part { site; ev } -> (
      match ev with
      | Participant.Executed { txn; seq } -> Vec.push calls (Exec { site; txn; seq })
      | Participant.Undone { txn; op_index; attempt } ->
        Vec.push calls (Undo { site; txn; op_index; attempt })
      | Participant.Finished { txn; committed } ->
        Vec.push calls (Finish { site; txn; commit = committed })
      | _ -> ())
    | Cluster.Tr_net _ | Cluster.Tr_lock _ | Cluster.Tr_phase _ -> ()
  in
  let instrument cluster =
    pristine := Array.map site_docs (Cluster.sites cluster);
    ignore (Cluster.enable_history cluster);
    let sim = Cluster.sim cluster in
    Cluster.attach_tracer cluster (on_event sim)
  in
  let round, cluster = Round.run ~instrument p in
  let ticks = Vec.length tick_times in
  { round;
    pristine = !pristine;
    sent;
    ships;
    statuses;
    calls;
    wfg_replies;
    tick_times;
    mean_pending = (if ticks = 0 then 0.0 else !pending_sum /. float_of_int ticks);
    serializable = Cluster.check_serializable cluster }
