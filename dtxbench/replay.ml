(* Per-layer costs, measured from outside the program: each layer's public
   functions are called again on the inputs the traced round captured, in
   the order the run called them, and timed with the monotonic clock and
   the minor-allocation counter (see [Clock]).

   Every replay must reproduce what the traced run did — each shipment's
   outcome, the run's lock requests, blocked operations, messages, bytes,
   simulator events and detector rounds. A replay that drifts measures
   some other execution, so any mismatch raises [Infidelity]. *)

module Site = Dtx.Site
module Msg = Dtx_net.Msg
module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Protocol = Dtx_protocol.Protocol
module Table = Dtx_locks.Table
module Wfg = Dtx_locks.Wfg
module Mode = Dtx_locks.Mode
module Exec = Dtx_update.Exec
module Op = Dtx_update.Op
module Eval = Dtx_xpath.Eval
module Doc = Dtx_xml.Doc
module Storage = Dtx_storage.Storage
module Workload = Dtx_workload.Workload
module Vec = Dtx_util.Vec

exception Infidelity of string

let infidel fmt = Printf.ksprintf (fun s -> raise (Infidelity s)) fmt

let status_to_string = function
  | Msg.Granted -> "granted"
  | Msg.Blocked -> "blocked"
  | Msg.Deadlock -> "deadlock"
  | Msg.Failed e -> "failed: " ^ e

let shipment (tr : Trace.t) key =
  match Hashtbl.find_opt tr.Trace.ships key with
  | Some s -> s
  | None ->
    let site, txn, seq = key in
    infidel "site %d executed t%d s%d but no shipment was delivered" site txn seq

let check_outcome (tr : Trace.t) ~pass key ((granted, status) as got) =
  let site, txn, seq = key in
  match Hashtbl.find_opt tr.Trace.statuses key with
  | Some expected when expected = got -> ()
  | Some (g, s) ->
    infidel "%s replay, site %d t%d s%d: %d granted then %s; traced %d then %s"
      pass site txn seq granted (status_to_string status) g (status_to_string s)
  | None -> infidel "%s replay, site %d t%d s%d: no traced status" pass site txn seq

let check_count ~what ~replayed ~traced =
  if replayed <> traced then
    infidel "%s: replay %d, traced run %d" what replayed traced

(* ------------------------------------------------------------------ *)
(* site: the composite, through Site's own entry points                *)
(* ------------------------------------------------------------------ *)

type site_result = {
  site_meter : Clock.meter;
  processed : (string * Op.t) Vec.t;  (** every operation run, in order *)
  cache_hits : int;
  cache_misses : int;
}

let mirror_sites (p : Workload.params) (tr : Trace.t) =
  Array.mapi
    (fun id docs ->
      Site.create ~id ~protocol_kind:p.Workload.protocol
        ~deadlock_policy:p.Workload.deadlock_policy ~storage:(Storage.memory ())
        ~docs ())
    tr.Trace.pristine

let site_pass p (tr : Trace.t) =
  let sites = mirror_sites p tr in
  let m = Clock.meter () in
  let processed = Vec.create () in
  Vec.iter
    (function
      | Trace.Exec { site; txn; seq } ->
        let key = (site, txn, seq) in
        let attempt, ops = shipment tr key in
        let s = sites.(site) in
        let outcome =
          Clock.time m (fun () ->
              let rec go granted = function
                | [] -> (granted, Msg.Granted)
                | (sh : Msg.shipment) :: rest -> (
                  match
                    Site.process_operation ~optimistic:sh.Msg.s_optimistic s
                      ~txn ~op_index:sh.Msg.s_index ~attempt ~doc:sh.Msg.s_doc
                      sh.Msg.s_op
                  with
                  | Site.Granted _ -> go (granted + 1) rest
                  | Site.Blocked _ -> (granted, Msg.Blocked)
                  | Site.Deadlock _ -> (granted, Msg.Deadlock)
                  | Site.Op_failed e -> (granted, Msg.Failed e))
              in
              go 0 ops)
        in
        List.iteri
          (fun i (sh : Msg.shipment) ->
            if i <= fst outcome then Vec.push processed (sh.Msg.s_doc, sh.Msg.s_op))
          ops;
        check_outcome tr ~pass:"site" key outcome
      | Trace.Undo { site; txn; op_index; attempt } ->
        Clock.time m (fun () ->
            Site.undo_operation ~only_attempt:attempt sites.(site) ~txn ~op_index)
      | Trace.Finish { site; txn; commit } ->
        Clock.time m (fun () -> ignore (Site.finish_txn sites.(site) ~txn ~commit)))
    tr.Trace.calls;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 sites in
  check_count ~what:"site lock requests"
    ~replayed:(sum (fun s -> s.Site.stats.Site.lock_requests))
    ~traced:tr.Trace.round.Round.lock_requests;
  check_count ~what:"site blocked operations"
    ~replayed:(sum (fun s -> s.Site.stats.Site.blocked_ops))
    ~traced:tr.Trace.round.Round.blocked_ops;
  { site_meter = m;
    processed;
    cache_hits = sum (fun s -> fst (Protocol.cache_stats s.Site.protocol));
    cache_misses = sum (fun s -> snd (Protocol.cache_stats s.Site.protocol)) }

(* ------------------------------------------------------------------ *)
(* protocol / locks / update: Alg. 3 split into its three layers       *)
(* ------------------------------------------------------------------ *)

(* A mirror of [Site.process_operation], [undo_operation] and [finish_txn]
   written against the layers' public functions, so each call can be
   charged to its layer: [Protocol.lock_requests] (protocol), the lock
   table and the site's wait-for graph (locks), [Exec] and DataGuide
   upkeep (update). The commit-time write-back to the store is left out —
   storage is not one of the measured layers. Reproducing the site
   replay's outcomes is what shows the mirror is faithful. *)

type meters = {
  derive : Clock.meter;
  acquire : Clock.meter;
  release_txn : Clock.meter;
  locks_other : Clock.meter;  (** release_request, local wait-for graph *)
  apply : Clock.meter;
  undo : Clock.meter;
  note : Clock.meter;  (** [Protocol.note_applied] *)
}

type split_counts = {
  mutable lock_requests : int;
  mutable blocked : int;
  mutable grants : int;
  mutable op_failures : int;
}

type effect = {
  e_doc : string;
  e_attempt : int;
  e_requests : (Table.resource * Mode.t) list;
  e_undo : Exec.undo_entry list;
}

type mirror = {
  protocol : Protocol.t;
  table : Table.t;
  wfg : Wfg.t;
  effects : (int * int, effect) Hashtbl.t;
  txn_ops : (int, int list ref) Hashtbl.t;
}

(* Site's optimistic downgrade, verbatim: read-only footprints take no
   locks, update footprints take intention modes. *)
let optimistic_requests op requests =
  if
    (not (Op.is_update op))
    && not (List.exists (fun (_, m) -> Mode.is_exclusive m) requests)
  then []
  else
    List.sort_uniq
      (fun (r1, m1) (r2, m2) ->
        let c = Table.compare_resource r1 r2 in
        if c <> 0 then c else compare m1 m2)
      (List.map (fun (r, m) -> (r, Mode.intention_for m)) requests)

let undo_effect mt m ~txn ~op_index eff =
  (match Protocol.doc m.protocol eff.e_doc with
   | Some doc ->
     let dg = Clock.time mt.undo (fun () -> Exec.undo doc eff.e_undo) in
     Clock.time mt.note (fun () -> Protocol.note_applied m.protocol ~doc:eff.e_doc dg)
   | None -> ());
  Clock.time mt.locks_other (fun () ->
      Table.release_request m.table ~txn eff.e_requests);
  Hashtbl.remove m.effects (txn, op_index);
  match Hashtbl.find_opt m.txn_ops txn with
  | Some l -> l := List.filter (fun i -> i <> op_index) !l
  | None -> ()

let process mt counts m ~optimistic ~txn ~op_index ~attempt ~doc op =
  (match Hashtbl.find_opt m.effects (txn, op_index) with
   | Some eff -> undo_effect mt m ~txn ~op_index eff
   | None -> ());
  Clock.time mt.locks_other (fun () -> Wfg.clear_waits_of m.wfg txn);
  match Clock.time mt.derive (fun () -> Protocol.lock_requests m.protocol ~doc op) with
  | Error e -> counts.op_failures <- counts.op_failures + 1; Msg.Failed e
  | Ok (full, processed) -> (
    let requests = if optimistic then optimistic_requests op full else full in
    counts.lock_requests <-
      counts.lock_requests + (if optimistic then List.length requests else processed);
    match Clock.time mt.acquire (fun () -> Table.acquire_all m.table ~txn requests) with
    | Error blockers ->
      counts.blocked <- counts.blocked + 1;
      let cycle =
        Clock.time mt.locks_other (fun () ->
            Wfg.add_wait m.wfg ~waiter:txn ~holders:blockers;
            Wfg.find_cycle m.wfg)
      in
      if cycle <> None then Msg.Deadlock else Msg.Blocked
    | Ok () -> (
      counts.grants <- counts.grants + List.length requests;
      let d =
        match Protocol.doc m.protocol doc with
        | Some d -> d
        | None -> infidel "split replay: %s vanished after lock derivation" doc
      in
      match Clock.time mt.apply (fun () -> Exec.apply d op) with
      | Error e ->
        counts.op_failures <- counts.op_failures + 1;
        Clock.time mt.locks_other (fun () -> Table.release_request m.table ~txn requests);
        Msg.Failed (Exec.error_to_string e)
      | Ok eff ->
        Clock.time mt.note (fun () -> Protocol.note_applied m.protocol ~doc eff.Exec.dg);
        Hashtbl.replace m.effects (txn, op_index)
          { e_doc = doc; e_attempt = attempt; e_requests = requests;
            e_undo = eff.Exec.undo };
        (match Hashtbl.find_opt m.txn_ops txn with
         | Some l -> l := op_index :: !l
         | None -> Hashtbl.replace m.txn_ops txn (ref [ op_index ]));
        Msg.Granted))

let finish mt m ~txn ~commit =
  let ops = match Hashtbl.find_opt m.txn_ops txn with Some l -> !l | None -> [] in
  if not commit then
    List.iter
      (fun op_index ->
        match Hashtbl.find_opt m.effects (txn, op_index) with
        | Some eff -> undo_effect mt m ~txn ~op_index eff
        | None -> ())
      ops;
  Clock.time mt.release_txn (fun () -> ignore (Table.release_txn m.table ~txn));
  List.iter (fun op_index -> Hashtbl.remove m.effects (txn, op_index)) ops;
  Hashtbl.remove m.txn_ops txn;
  Clock.time mt.locks_other (fun () -> Wfg.remove_txn m.wfg txn)

let split_pass (p : Workload.params) (tr : Trace.t) =
  if p.Workload.deadlock_policy <> Site.Detection then
    infidel "the split replay mirrors the Detection deadlock policy only";
  let mirrors =
    Array.map
      (fun docs ->
        let protocol = Protocol.create p.Workload.protocol in
        List.iter (fun d -> Protocol.add_doc protocol (Doc.clone d)) docs;
        { protocol; table = Table.create (); wfg = Wfg.create ();
          effects = Hashtbl.create 64; txn_ops = Hashtbl.create 32 })
      tr.Trace.pristine
  in
  let mt =
    { derive = Clock.meter (); acquire = Clock.meter ();
      release_txn = Clock.meter (); locks_other = Clock.meter ();
      apply = Clock.meter (); undo = Clock.meter (); note = Clock.meter () }
  in
  let counts = { lock_requests = 0; blocked = 0; grants = 0; op_failures = 0 } in
  Vec.iter
    (function
      | Trace.Exec { site; txn; seq } ->
        let key = (site, txn, seq) in
        let attempt, ops = shipment tr key in
        let rec go granted = function
          | [] -> (granted, Msg.Granted)
          | (sh : Msg.shipment) :: rest -> (
            match
              process mt counts mirrors.(site) ~optimistic:sh.Msg.s_optimistic
                ~txn ~op_index:sh.Msg.s_index ~attempt ~doc:sh.Msg.s_doc
                sh.Msg.s_op
            with
            | Msg.Granted -> go (granted + 1) rest
            | status -> (granted, status))
        in
        check_outcome tr ~pass:"split" key (go 0 ops)
      | Trace.Undo { site; txn; op_index; attempt } -> (
        let m = mirrors.(site) in
        match Hashtbl.find_opt m.effects (txn, op_index) with
        | Some eff when eff.e_attempt = attempt -> undo_effect mt m ~txn ~op_index eff
        | Some _ | None -> ())
      | Trace.Finish { site; txn; commit } -> finish mt mirrors.(site) ~txn ~commit)
    tr.Trace.calls;
  check_count ~what:"split lock requests" ~replayed:counts.lock_requests
    ~traced:tr.Trace.round.Round.lock_requests;
  check_count ~what:"split blocked operations" ~replayed:counts.blocked
    ~traced:tr.Trace.round.Round.blocked_ops;
  (mt, counts)

(* ------------------------------------------------------------------ *)
(* xpath: standalone evaluation of every executed operation's paths    *)
(* ------------------------------------------------------------------ *)

let xpath_pass (tr : Trace.t) processed =
  let docs = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun d ->
         if not (Hashtbl.mem docs d.Doc.name) then Hashtbl.replace docs d.Doc.name d))
    tr.Trace.pristine;
  let m = Clock.meter () in
  let visited = ref 0 in
  Vec.iter
    (fun (name, op) ->
      match Hashtbl.find_opt docs name with
      | None -> infidel "xpath replay: no replica of %s" name
      | Some doc ->
        List.iter
          (fun path ->
            ignore (Clock.time m (fun () -> Eval.select doc path));
            visited := !visited + Eval.nodes_visited doc path)
          (Op.paths op))
    processed;
  (m, !visited)

(* ------------------------------------------------------------------ *)
(* msg: the wire codec over every dispatched message                   *)
(* ------------------------------------------------------------------ *)

type msg_result = {
  size_meter : Clock.meter;  (** [Msg.size]: what each dispatch pays *)
  encode_meter : Clock.meter;
  decode_meter : Clock.meter;
  n_msgs : int;
}

let msg_pass (tr : Trace.t) =
  (* What [Net.dispatch] does per message: size it, count remote traffic. *)
  let size_meter = Clock.meter () in
  let remote = ref 0 and bytes = ref 0 in
  Clock.time size_meter (fun () ->
      Vec.iter
        (fun (src, dst, m) ->
          let b = Msg.size m in
          if src <> dst then begin
            incr remote;
            bytes := !bytes + b
          end)
        tr.Trace.sent);
  check_count ~what:"messages" ~replayed:!remote ~traced:tr.Trace.round.Round.messages;
  check_count ~what:"network bytes" ~replayed:!bytes
    ~traced:tr.Trace.round.Round.net_bytes;
  let msgs = Array.map (fun (_, _, m) -> m) (Vec.to_array tr.Trace.sent) in
  let encode_meter = Clock.meter () in
  let encoded = Clock.time encode_meter (fun () -> Array.map Msg.encode msgs) in
  let decode_meter = Clock.meter () in
  let decoded = Clock.time decode_meter (fun () -> Array.map Msg.decode encoded) in
  Array.iteri
    (fun i d ->
      match d with
      | Ok m when Msg.encode m = encoded.(i) -> ()
      | Ok _ -> infidel "msg replay: message %d does not re-encode identically" i
      | Error e -> infidel "msg replay: message %d does not decode: %s" i e)
    decoded;
  { size_meter; encode_meter; decode_meter; n_msgs = Array.length msgs }

(* ------------------------------------------------------------------ *)
(* sim: the event queue re-firing the traced event times               *)
(* ------------------------------------------------------------------ *)

(* No-op events at the traced times, kept at the run's mean queue depth:
   each fired event schedules the one [depth] places later. *)
let sim_pass (tr : Trace.t) =
  let times = Vec.to_array tr.Trace.tick_times in
  let n = Array.length times in
  let depth = max 1 (int_of_float (Float.round tr.Trace.mean_pending)) in
  let m = Clock.meter () in
  let fired = ref 0 in
  Clock.time m (fun () ->
      let sim = Sim.create () in
      let rec fire i () =
        incr fired;
        let j = i + depth in
        if j < n then ignore (Sim.schedule_at sim ~time:times.(j) (fire j))
      in
      for i = 0 to min depth n - 1 do
        ignore (Sim.schedule_at sim ~time:times.(i) (fire i))
      done;
      Sim.run sim);
  check_count ~what:"simulator events" ~replayed:!fired ~traced:n;
  m

(* ------------------------------------------------------------------ *)
(* wfg: the Alg.-4 detector over the traced reply edge sets            *)
(* ------------------------------------------------------------------ *)

(* Mirrors the cluster's detector: a round polls the sites in order from
   site 0, merges each reply into one graph, and stops at the first cycle.
   So a round must end exactly at the reply where the replay closes a
   cycle, and a round without a cycle must have heard from every site.
   (A cycle usually becomes a [Victim] message, but not when every member
   has already finished, so victims only bound the cycles from below.) *)
let wfg_pass (tr : Trace.t) =
  let n_sites = Array.length tr.Trace.pristine in
  let m = Clock.meter () in
  let rounds = ref 0 and edges = ref 0 and cycles = ref 0 in
  let merged = ref (Wfg.create ()) and closed = ref false and heard = ref 0 in
  let end_round () =
    if !rounds > 0 && (not !closed) && !heard <> n_sites then
      infidel "wfg replay: detector round %d heard %d of %d sites without a cycle"
        !rounds !heard n_sites
  in
  Vec.iter
    (fun (src, reply) ->
      if src = 0 then begin
        end_round ();
        incr rounds;
        merged := Wfg.create ();
        closed := false;
        heard := 0
      end;
      if !closed then
        infidel "wfg replay: detector round %d went on after a cycle" !rounds;
      incr heard;
      edges := !edges + List.length reply;
      let g = !merged in
      let cycle =
        Clock.time m (fun () ->
            List.iter (fun (w, h) -> Wfg.add_wait g ~waiter:w ~holders:[ h ]) reply;
            Wfg.find_cycle g)
      in
      if cycle <> None then begin
        incr cycles;
        closed := true
      end)
    tr.Trace.wfg_replies;
  end_round ();
  let victims =
    Vec.fold_left
      (fun n (_, _, msg) -> match msg with Msg.Victim _ -> n + 1 | _ -> n)
      0 tr.Trace.sent
  in
  if victims > !cycles then
    infidel "wfg replay: %d victims but %d cycles" victims !cycles;
  (m, !rounds, !edges)
