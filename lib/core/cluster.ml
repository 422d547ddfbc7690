module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Wfg = Dtx_locks.Wfg
module Allocation = Dtx_frag.Allocation
module Storage = Dtx_storage.Storage
module Protocol = Dtx_protocol.Protocol

type commit_protocol = Coordinator.commit_protocol = One_phase | Two_phase

type config = {
  protocol : Protocol.kind;
  cost : Cost.t;
  deadlock_period_ms : float;
  storage : [ `Memory | `Filesystem of string ];
  commit : commit_protocol;
  deadlock_policy : Site.deadlock_policy;
  op_timeout_ms : float option;
  retransmit_ms : float option;
  txn_timeout_ms : float option;
}

let default_config ?(protocol = Protocol.xdgl) () =
  { protocol; cost = Cost.default; deadlock_period_ms = 40.0;
    storage = `Memory; commit = One_phase;
    deadlock_policy = Site.Detection; op_timeout_ms = None;
    retransmit_ms = None; txn_timeout_ms = None }

type stats = Coordinator.stats = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable failed : int;
  mutable deadlock_aborts : int;
  mutable distributed_deadlocks : int;
  mutable local_deadlocks : int;
  mutable op_undos : int;
  mutable wake_messages : int;
  mutable wounded : int;
  mutable retransmits : int;
  mutable validation_aborts : int;
  mutable last_finish : float;
  response_times : float Dtx_util.Vec.t;
  commit_stamps : float Dtx_util.Vec.t;
  concurrency_samples : (float * int) Dtx_util.Vec.t;
}

type t = {
  sim : Sim.t;
  net : Net.t;
  config : config;
  n_sites : int;
  sites : Site.t array;
  catalog : Allocation.catalog;
  coord : Coordinator.t;
  participants : Participant.ctx array;
  failed_sites : (int, unit) Hashtbl.t;
  mutable shutdown_requested : bool;
  mutable detector_busy : bool;
  mutable detector_merged : Wfg.t;
  mutable history : History.t option;
}

(* One funnel for every trace stream the analyzer consumes (see
   {!attach_tracer}). *)
type trace_event =
  | Tr_lock of { site : int; ev : Dtx_locks.Table.event }
  | Tr_net of { src : int; dst : int; dir : Net.dir; msg : Msg.t }
  | Tr_phase of {
      txn : int;
      from_ : Coordinator.phase option;
      to_ : Coordinator.phase;
    }
  | Tr_part of { site : int; ev : Participant.event }
  | Tr_tick

type tracer = time:float -> trace_event -> unit

let stats t = Coordinator.stats t.coord

let active_txns t = Coordinator.active t.coord

let sites t = t.sites

let sim t = t.sim

let net t = t.net

let coordinator t = t.coord

let participants t = t.participants

let catalog t = t.catalog

let txn_status t id = Coordinator.txn_status t.coord id

let total_lock_requests t =
  Array.fold_left (fun acc s -> acc + s.Site.stats.Site.lock_requests) 0 t.sites

let total_blocked_ops t =
  Array.fold_left (fun acc s -> acc + s.Site.stats.Site.blocked_ops) 0 t.sites

let crash_site t ~site =
  Hashtbl.replace t.failed_sites site ();
  (* The history mirror must forget accesses whose effects just died with
     the volatile state, or a post-restart re-execution shows up twice and
     fabricates precedence cycles. WAL-protected transactions keep theirs:
     redo replay re-instates a prepared transaction's effects verbatim. *)
  (match t.history with
   | None -> ()
   | Some h ->
     let wal = t.sites.(site).Site.wal in
     History.wipe_site h ~site ~keep:(fun txn ->
         Wal.outcome_of wal txn <> `Unknown));
  Site.wipe_volatile t.sites.(site);
  Participant.crash t.participants.(site)

(* Reload the store, rejoin, and let the participant resolve its in-doubt
   transactions by querying their coordinators (committed answers replay
   the WAL redo lists): a coordinator may well hold a Committed outcome that
   a blunt local presumed abort would contradict. *)
let restart_site t ~site =
  Site.recover_from_storage t.sites.(site);
  Hashtbl.remove t.failed_sites site;
  Participant.restart t.participants.(site)

let site_failed t site = Hashtbl.mem t.failed_sites site

(* ------------------------------------------------------------------ *)
(* Distributed deadlock detection: Algorithm 4                         *)
(* ------------------------------------------------------------------ *)

(* Site 0 plays the paper's detector: it polls each live site for its
   wait-for graph (one Wfg_request at a time), merges the replies, and on
   the first cycle notifies the victim's coordinator with a Victim
   message — "the most recent transaction involved in the circle is
   aborted" (ids grow monotonically with start time). *)

let detector_site = 0

let rec detector_request t i =
  if i >= t.n_sites then t.detector_busy <- false
  else if site_failed t i then (* unreachable: treat as an empty graph *)
    detector_request t (i + 1)
  else Net.dispatch t.net ~src:detector_site ~dst:i Msg.Wfg_request

let detector_reply t ~src edges =
  if t.detector_busy then begin
    List.iter
      (fun (w, h) -> Wfg.add_wait t.detector_merged ~waiter:w ~holders:[ h ])
      edges;
    match Wfg.find_cycle t.detector_merged with
    | None -> detector_request t (src + 1)
    | Some cycle -> (
      t.detector_busy <- false;
      let victim = Coordinator.newest_of t.coord cycle in
      match Coordinator.home_of t.coord ~txn:victim with
      | Some coordinator ->
        Net.dispatch t.net ~src:detector_site ~dst:coordinator
          (Msg.Victim { txn = victim })
      | None -> ())
  end

let detect_deadlocks t =
  if not t.detector_busy then begin
    t.detector_busy <- true;
    t.detector_merged <- Wfg.create ();
    detector_request t 0
  end

(* ------------------------------------------------------------------ *)
(* The Listener: route delivered messages by type                      *)
(* ------------------------------------------------------------------ *)

let route t ~src ~dst (msg : Msg.t) =
  match msg with
  | Msg.Op_ship _ | Msg.Op_undo _ | Msg.Prepare _ | Msg.Commit _
  | Msg.Abort _ | Msg.Wfg_request | Msg.Outcome_reply _ ->
    Participant.handle t.participants.(dst) ~src msg
  | Msg.Wfg_reply { edges } -> detector_reply t ~src edges
  | Msg.Op_status _ | Msg.Vote _ | Msg.End_ack _ | Msg.Wake _ | Msg.Wound _
  | Msg.Victim _ | Msg.Outcome_query _ ->
    Coordinator.dispatch t.coord ~src msg

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let create ~sim ~net ~n_sites config ~placements =
  if n_sites < 1 then invalid_arg "Cluster.create: n_sites < 1";
  let site_docs i =
    List.filter_map
      (fun (p : Allocation.placement) ->
        if List.mem i p.Allocation.sites then Some p.Allocation.doc else None)
      placements
  in
  let make_site i =
    let storage =
      match config.storage with
      | `Memory -> Storage.memory ()
      | `Filesystem dir ->
        Storage.filesystem ~dir:(Filename.concat dir (Printf.sprintf "site%d" i))
    in
    Site.create ~id:i ~protocol_kind:config.protocol
      ~deadlock_policy:config.deadlock_policy ~storage ~docs:(site_docs i) ()
  in
  let sites = Array.init n_sites make_site in
  let catalog = Allocation.catalog placements in
  let failed_sites = Hashtbl.create 4 in
  let coord =
    Coordinator.create ~sim ~net ~cost:config.cost ~catalog
      ~commit:config.commit ~op_timeout_ms:config.op_timeout_ms
      ?retransmit_ms:config.retransmit_ms
      ?txn_timeout_ms:config.txn_timeout_ms
      ~site_failed:(fun s -> Hashtbl.mem failed_sites s)
      ~n_sites ()
  in
  (* The Commute protocol needs its coordinator-side classifier, built over
     private clones of the placement documents. *)
  if Protocol.needs_validation config.protocol then
    Coordinator.set_optimist coord
      (Optimist.create ~protocol:config.protocol
         ~docs:
           (List.map (fun (p : Allocation.placement) -> p.Allocation.doc)
              placements));
  let participants =
    Array.map
      (fun (site : Site.t) ->
        { Participant.sim;
          net;
          cost = config.cost;
          site;
          two_phase = config.commit = Two_phase;
          site_failed = (fun () -> Hashtbl.mem failed_sites site.Site.id);
          txn_live = (fun ~txn ~attempt -> Coordinator.txn_live coord ~txn ~attempt);
          retransmit_ms = config.retransmit_ms;
          replies = Hashtbl.create 64;
          txn_seqs = Hashtbl.create 64;
          ended = Hashtbl.create 64;
          recovering = Hashtbl.create 4;
          tracer = None })
      sites
  in
  let t =
    { sim;
      net;
      config;
      n_sites;
      sites;
      catalog;
      coord;
      participants;
      failed_sites;
      shutdown_requested = false;
      detector_busy = false;
      detector_merged = Wfg.create ();
      history = None }
  in
  Net.set_handler net (fun ~src ~dst msg -> route t ~src ~dst msg);
  Sim.every sim ~period:config.deadlock_period_ms (fun () ->
      if Coordinator.active coord > 0 then detect_deadlocks t;
      not (t.shutdown_requested && Coordinator.active coord = 0));
  t

let shutdown_when_idle t = t.shutdown_requested <- true

(* ------------------------------------------------------------------ *)
(* Unified tracing                                                     *)
(* ------------------------------------------------------------------ *)

(* One call installs every per-module trace sink the analyzer needs: the
   simulator clock, the network dispatch path, the coordinator FSM, each
   site's lock table and each participant. The sink sees events in the
   exact causal order the cluster produced them. *)
let attach_tracer t (f : tracer) =
  Sim.set_tracer t.sim (Some (fun ~time ~seq:_ -> f ~time Tr_tick));
  Net.set_tracer t.net
    (Some
       (fun ~src ~dst dir msg ->
         f ~time:(Sim.now t.sim) (Tr_net { src; dst; dir; msg })));
  Coordinator.set_tracer t.coord
    (Some
       (fun ~txn ~from_ ~to_ ->
         f ~time:(Sim.now t.sim) (Tr_phase { txn; from_; to_ })));
  Array.iter
    (fun (site : Site.t) ->
      let id = site.Site.id in
      Dtx_locks.Table.set_tracer site.Site.table
        (Some (fun ev -> f ~time:(Sim.now t.sim) (Tr_lock { site = id; ev }))))
    t.sites;
  Array.iter
    (fun (p : Participant.ctx) ->
      let id = p.Participant.site.Site.id in
      p.Participant.tracer <-
        Some (fun ev -> f ~time:(Sim.now t.sim) (Tr_part { site = id; ev })))
    t.participants

let enable_history t =
  match t.history with
  | Some h -> h
  | None ->
    let h = History.create () in
    t.history <- Some h;
    Coordinator.set_history t.coord h;
    Array.iter
      (fun (site : Site.t) ->
        site.Site.access_sink <-
          Some
            (fun ~txn ~op_index ~attempt grants ->
              History.record h ~time:(Sim.now t.sim) ~site:site.Site.id ~txn
                ~op_index ~attempt grants);
        site.Site.undo_sink <-
          Some (fun ~txn ~op_index ~attempt ->
              History.invalidate h ~txn ~op_index ~attempt))
      t.sites;
    h

let history t = t.history

let check_serializable t =
  match t.history with
  | Some h -> History.check_serializable h
  | None -> invalid_arg "Cluster.check_serializable: history not enabled"

let submit t ~client ~coordinator ~ops ~on_finish =
  if coordinator < 0 || coordinator >= t.n_sites then
    invalid_arg "Cluster.submit: bad coordinator site";
  Coordinator.submit t.coord ~client ~coordinator ~ops ~on_finish
