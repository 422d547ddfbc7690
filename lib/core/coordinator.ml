module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Txn = Dtx_txn.Txn
module Allocation = Dtx_frag.Allocation
module Vec = Dtx_util.Vec

let src = Logs.Src.create "dtx.coordinator" ~doc:"DTX coordinator events"

module Log = (val Logs.src_log src : Logs.LOG)

type commit_protocol = One_phase | Two_phase

type stats = {
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
  response_times : float Vec.t;
  commit_stamps : float Vec.t;
  concurrency_samples : (float * int) Vec.t;
}

let fresh_stats () =
  { submitted = 0; committed = 0; aborted = 0; failed = 0; deadlock_aborts = 0;
    distributed_deadlocks = 0; local_deadlocks = 0; op_undos = 0;
    wake_messages = 0; wounded = 0; retransmits = 0; validation_aborts = 0;
    last_finish = 0.0;
    response_times = Vec.create ();
    commit_stamps = Vec.create (); concurrency_samples = Vec.create () }

(* Why a transaction ended the way it did (drives the deadlock counters). *)
type end_reason =
  | Reason_normal
  | Reason_deadlock
  | Reason_op_failure of string
  | Reason_validation of string

type phase =
  | Executing  (** picking / scheduling the next shipment *)
  | Awaiting_replies  (** a shipment is in flight to [awaiting_site] *)
  | Waiting  (** blocked; resumes on [Wake] *)
  | Preparing  (** 2PC vote round outstanding *)
  | Ending  (** commit/abort fan-out outstanding *)
  | Done

type txn_state = {
  txn : Txn.t;
  on_finish : Txn.t -> unit;
  opt_flags : bool array;
      (** per-operation optimistic flags from {!Optimist.admit}; empty
          outside the Commute protocol *)
  op_sites : int list array;
      (** per-operation replica sites (ascending), resolved from the catalog
          once at submit — the shipping loop never re-derives them *)
  involved : int list;
      (** every site that may hold locks, wait edges or effects for this
          transaction: the replica sites of every document it references plus
          the coordinator, sorted unique; precomputed at submit (the catalog
          is static for the life of a run) *)
  mutable phase : phase;
  mutable attempt : int;  (** shipment-round counter (tags effects/undos) *)
  mutable batch : Txn.op_record list;  (** operations in the current shipment *)
  mutable sites_left : int list;  (** participants still to visit, ascending *)
  mutable sites_done : int list;  (** participants that executed this attempt *)
  mutable awaiting_site : int option;
      (** participant whose status reply is outstanding (timeout guard) *)
  mutable awaiting_seq : int option;
      (** sequence number of the outstanding shipment — a status reply
          carrying any other seq is a stale duplicate and is dropped *)
  mutable wake_pending : bool;
      (** a wake arrived while this attempt was in flight; retry instead of
          sleeping (prevents the lost-wakeup race) *)
  mutable prepared : bool;  (** 2PC: the vote round completed successfully *)
  mutable end_commit : bool;  (** the in-flight end protocol is a commit *)
  mutable pending_sites : int list;
      (** sites whose vote / end-ack is still outstanding in the current
          round; per-site membership makes duplicated replies harmless *)
  mutable round_failed : bool;
  mutable round : int;  (** vote/end round counter (staleness guard) *)
  mutable reason : end_reason;
}

let finishing st =
  match st.phase with
  | Preparing | Ending | Done -> true
  | Executing | Awaiting_replies | Waiting -> false

let phase_to_string = function
  | Executing -> "Executing"
  | Awaiting_replies -> "Awaiting_replies"
  | Waiting -> "Waiting"
  | Preparing -> "Preparing"
  | Ending -> "Ending"
  | Done -> "Done"

type phase_tracer = txn:int -> from_:phase option -> to_:phase -> unit

type t = {
  sim : Sim.t;
  net : Net.t;
  cost : Cost.t;
  catalog : Allocation.catalog;
  commit : commit_protocol;
  op_timeout_ms : float option;
  retransmit_ms : float option;
  txn_timeout_ms : float option;
  site_failed : int -> bool;
  n_sites : int;
  txns : (int, txn_state) Hashtbl.t;
  outcomes : (int, bool * int) Hashtbl.t;
      (** txn → (committed, coordinator site), recorded at finalize — the
          durable-enough answer store for recovery outcome queries *)
  mutable next_txn_id : int;
  mutable next_seq : int;
  stats : stats;
  mutable active : int;
  mutable history : History.t option;
  mutable tracer : phase_tracer option;
  mutable optimist : Optimist.t option;
}

let create ~sim ~net ~cost ~catalog ~commit ~op_timeout_ms ?retransmit_ms
    ?txn_timeout_ms ~site_failed ~n_sites () =
  { sim; net; cost; catalog; commit; op_timeout_ms; retransmit_ms;
    txn_timeout_ms; site_failed; n_sites;
    txns = Hashtbl.create 128;
    outcomes = Hashtbl.create 128;
    next_txn_id = 1;
    next_seq = 1;
    stats = fresh_stats ();
    active = 0;
    history = None;
    tracer = None;
    optimist = None }

let set_tracer t tr = t.tracer <- tr

let set_optimist t o = t.optimist <- Some o

let optimistic_flag (st : txn_state) i =
  i < Array.length st.opt_flags && st.opt_flags.(i)

(* Every phase change funnels through here so the analyzer sees the FSM as
   it actually runs. Same-phase assignments are suppressed: they are not
   transitions. *)
let set_phase t (st : txn_state) p =
  if st.phase <> p then begin
    (match t.tracer with
     | Some tr -> tr ~txn:st.txn.Txn.id ~from_:(Some st.phase) ~to_:p
     | None -> ());
    st.phase <- p
  end

let stats t = t.stats

let active t = t.active

let txn_status t id =
  match Hashtbl.find_opt t.txns id with
  | Some st -> Some st.txn.Txn.status
  | None -> None

let txn_live t ~txn ~attempt =
  match Hashtbl.find_opt t.txns txn with
  | Some st -> (not (finishing st)) && st.attempt = attempt
  | None -> false

let home_of t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | Some st when not (finishing st) -> Some st.txn.Txn.coordinator
  | _ -> None

(* "The most recent transaction involved in the circle is aborted"
   (Alg. 4 l. 7): newest by submission timestamp, ties (same-tick
   submissions) broken by the larger id so victim choice — and therefore
   any schedule replay — is deterministic. Transactions the coordinator no
   longer tracks rank oldest. *)
let newest_of t ids =
  let birth id =
    match Hashtbl.find_opt t.txns id with
    | Some st -> st.txn.Txn.submitted_at
    | None -> neg_infinity
  in
  match ids with
  | [] -> invalid_arg "Coordinator.newest_of: empty cycle"
  | id :: rest ->
    List.fold_left
      (fun best id ->
        let c = compare (birth id) (birth best) in
        if c > 0 || (c = 0 && id > best) then id else best)
      id rest

let set_history t h = t.history <- Some h

let sample_concurrency t =
  Vec.push t.stats.concurrency_samples (Sim.now t.sim, t.active)

(* Retry delay after a wake: a deterministic, per-transaction stagger.
   Without it, two transactions blocked on each other's undone operations
   wake simultaneously, collide again, undo again — a livelock the periodic
   detector would eventually resolve by aborting one of them. Staggering by
   id and attempt lets the earlier transaction win the race instead. *)
let retry_delay t (st : txn_state) =
  t.cost.Cost.sched_ms
  +. (0.3 *. float_of_int (st.txn.Txn.id mod 8))
  +. (0.2 *. float_of_int (min st.attempt 20))

let singleton_site (st : txn_state) i =
  match st.op_sites.(i) with [ s ] -> Some s | _ -> None

(* Retransmission (enabled by [retransmit_ms]): re-send with exponential
   backoff while [still_pending ()] holds; after [max_retransmits] resends
   hand the problem to [give_up]. With [retransmit_ms = None] (the default)
   nothing is scheduled and the protocol behaves exactly as before. *)
let max_retransmits = 8

let retransmit_loop t ~still_pending ~resend ~give_up =
  match t.retransmit_ms with
  | None -> ()
  | Some base ->
    let rec arm ~delay ~tries =
      ignore
        (Sim.schedule t.sim ~delay (fun () ->
             if still_pending () then
               if tries >= max_retransmits then give_up ()
               else begin
                 t.stats.retransmits <- t.stats.retransmits + 1;
                 resend ();
                 arm ~delay:(delay *. 2.0) ~tries:(tries + 1)
               end))
    in
    arm ~delay:base ~tries:0

(* ------------------------------------------------------------------ *)
(* Algorithm 1: ship operations, site by site                          *)
(* ------------------------------------------------------------------ *)

let rec coordinator_step t (st : txn_state) =
  if st.phase = Executing && st.txn.Txn.status = Txn.Active then begin
    let doomed =
      match t.optimist with
      | Some o -> Optimist.invalidated o ~txn:st.txn.Txn.id
      | None -> None
    in
    match doomed with
    | Some reason ->
      (* A concurrent admission broke this transaction's optimistic
         assumption: abort now instead of finishing doomed work (the
         validation step would reject it anyway). *)
      st.reason <- Reason_validation reason;
      start_end_protocol t st ~commit:false
    | None -> (
    match Txn.next_operation st.txn with
    | None -> start_end_protocol t st ~commit:true
    | Some op_rec -> (
      let doc = op_rec.Txn.doc in
      match st.op_sites.(op_rec.Txn.op_index) with
      | [] ->
        st.reason <- Reason_op_failure (Printf.sprintf "no site holds %s" doc);
        start_end_protocol t st ~commit:false
      | op_sites ->
        (* Visit participants one at a time, in ascending site order (a
           global acquisition order: two operations contending for the same
           replicas meet at the same first site, so one queues there holding
           nothing — no cross-site livelock between single operations). *)
        let batch =
          match op_sites with
          | [ s ] ->
            (* Batch the maximal run of follow-on operations bound for the
               same single site into this shipment: one message round-trip
               executes them all, and a block inside the batch leaves
               nothing to undo elsewhere (no other site was visited). *)
            let ops = st.txn.Txn.ops in
            let n = Array.length ops in
            let rec collect i acc =
              if i >= n then List.rev acc
              else if singleton_site st i = Some s then
                collect (i + 1) (ops.(i) :: acc)
              else List.rev acc
            in
            collect (op_rec.Txn.op_index + 1) [ op_rec ]
          | _ -> [ op_rec ]
        in
        st.attempt <- st.attempt + 1;
        st.batch <- batch;
        st.sites_left <- op_sites;
        st.sites_done <- [];
        Log.debug (fun m ->
            m "t%d op%d (batch %d) attempt %d -> sites [%s]" st.txn.Txn.id
              op_rec.Txn.op_index (List.length batch) st.attempt
              (String.concat ";" (List.map string_of_int op_sites)));
        visit_next_site t st))
  end

and visit_next_site t (st : txn_state) =
  match st.sites_left with
  | [] ->
    (* Executed at every participant: the shipment is done (Alg. 1). *)
    List.iter
      (fun (r : Txn.op_record) ->
        r.Txn.executed_sites <- st.sites_done;
        Txn.advance st.txn)
      st.batch;
    set_phase t st Executing;
    ignore
      (Sim.schedule t.sim ~delay:t.cost.Cost.sched_ms (fun () ->
           coordinator_step t st))
  | dst :: rest ->
    st.sites_left <- rest;
    st.awaiting_site <- Some dst;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    st.awaiting_seq <- Some seq;
    set_phase t st Awaiting_replies;
    let attempt = st.attempt in
    let shipments =
      List.map
        (fun (r : Txn.op_record) ->
          { Msg.s_index = r.Txn.op_index; s_doc = r.Txn.doc; s_op = r.Txn.op;
            s_text = r.Txn.op_text;
            s_optimistic = optimistic_flag st r.Txn.op_index })
        st.batch
    in
    let msg = Msg.Op_ship { txn = st.txn.Txn.id; attempt; seq; ops = shipments } in
    let ship () =
      Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst ~channel:Unreliable msg
    in
    ship ();
    (* The shipment (and its status reply) ride the unreliable channel: the
       same seq is re-shipped on a backoff timer until the reply lands, and
       the participant's (txn, seq) cache absorbs the duplicates. *)
    let still_pending () =
      Hashtbl.mem t.txns st.txn.Txn.id
      && st.phase = Awaiting_replies
      && st.awaiting_seq = Some seq
    in
    retransmit_loop t ~still_pending ~resend:ship ~give_up:(fun () ->
        if still_pending () then begin
          st.reason <-
            Reason_op_failure
              (Printf.sprintf "shipment undeliverable at site %d" dst);
          start_end_protocol t st ~commit:false
        end);
    (match t.op_timeout_ms with
     | None -> ()
     | Some timeout ->
       ignore
         (Sim.schedule t.sim ~delay:timeout (fun () ->
              if
                st.attempt = attempt
                && st.phase = Awaiting_replies
                && st.awaiting_site = Some dst
                && st.txn.Txn.status = Txn.Active
                && Hashtbl.mem t.txns st.txn.Txn.id
              then begin
                Log.debug (fun m ->
                    m "t%d op timeout at site %d" st.txn.Txn.id dst);
                st.reason <-
                  Reason_op_failure
                    (Printf.sprintf "operation timed out at site %d" dst);
                start_end_protocol t st ~commit:false
              end)))

and handle_op_status t ~src ~txn ~attempt ~seq ~granted status =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if
      st.attempt = attempt && st.phase = Awaiting_replies
      && st.awaiting_seq = Some seq
    then begin
      st.awaiting_site <- None;
      st.awaiting_seq <- None;
      match (status : Msg.op_status) with
      | Msg.Deadlock ->
        t.stats.local_deadlocks <- t.stats.local_deadlocks + 1;
        st.reason <- Reason_deadlock;
        start_end_protocol t st ~commit:false
      | Msg.Failed msg ->
        st.reason <- Reason_op_failure msg;
        start_end_protocol t st ~commit:false
      | Msg.Granted ->
        st.sites_done <- src :: st.sites_done;
        visit_next_site t st
      | Msg.Blocked ->
        (* A granted prefix of the batch completed at its (only) site;
           advance past it so only the blocked operation retries. *)
        let rec advance_prefix k batch =
          if k = 0 then batch
          else
            match batch with
            | (r : Txn.op_record) :: rest ->
              r.Txn.executed_sites <- [ src ];
              Txn.advance st.txn;
              advance_prefix (k - 1) rest
            | [] -> []
        in
        st.batch <- advance_prefix granted st.batch;
        (* Blocked at this participant: undo where the operation already
           ran (Alg. 1 l. 15-17) — the undo's released locks may wake other
           transactions at those sites — then wait. *)
        (match Txn.next_operation st.txn with
         | Some op_rec ->
           let op_index = op_rec.Txn.op_index in
           let attempt = st.attempt in
           if st.sites_done <> [] then
             t.stats.op_undos <- t.stats.op_undos + List.length st.sites_done;
           List.iter
             (fun site_id ->
               Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst:site_id
                 (Msg.Op_undo { txn = st.txn.Txn.id; op_index; attempt }))
             st.sites_done
         | None -> ());
        enter_wait t st
    end

and enter_wait t (st : txn_state) =
  if st.wake_pending then begin
    (* The blocker already finished while we were deciding; retry now. *)
    st.wake_pending <- false;
    set_phase t st Executing;
    ignore
      (Sim.schedule t.sim ~delay:(retry_delay t st) (fun () ->
           coordinator_step t st))
  end
  else begin
    set_phase t st Waiting;
    st.txn.Txn.status <- Txn.Waiting;
    st.txn.Txn.wait_started <- Sim.now t.sim
  end

and handle_wake t ~txn =
  t.stats.wake_messages <- t.stats.wake_messages + 1;
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st -> (
    match st.phase with
    | Waiting ->
      set_phase t st Executing;
      st.txn.Txn.status <- Txn.Active;
      st.txn.Txn.waited_total <-
        st.txn.Txn.waited_total +. (Sim.now t.sim -. st.txn.Txn.wait_started);
      ignore
        (Sim.schedule t.sim ~delay:(retry_delay t st) (fun () ->
             coordinator_step t st))
    | Executing | Awaiting_replies -> st.wake_pending <- true
    | Preparing | Ending | Done -> ())

(* Wound-wait: an older requester needs this transaction's locks. *)
and handle_wound t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if not (finishing st) then begin
      t.stats.wounded <- t.stats.wounded + 1;
      st.reason <- Reason_deadlock;
      start_end_protocol t st ~commit:false
    end

(* Alg. 4 l. 7: the detector chose this transaction as a cycle's victim. *)
and handle_victim t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if not (finishing st) then begin
      t.stats.distributed_deadlocks <- t.stats.distributed_deadlocks + 1;
      Log.debug (fun m -> m "distributed deadlock: aborting t%d" txn);
      st.reason <- Reason_deadlock;
      start_end_protocol t st ~commit:false
    end

(* ------------------------------------------------------------------ *)
(* Commit / abort: Algorithms 5 and 6                                  *)
(* ------------------------------------------------------------------ *)

and involved_sites _t (st : txn_state) = st.involved

and start_end_protocol t (st : txn_state) ~commit =
  if not (finishing st) then begin
    (* The Commute protocol's validation step, run once per transaction on
       the way into its end protocol — before the prepare phase under 2PC,
       so an invalidated optimistic assumption aborts instead of
       preparing. *)
    let commit =
      commit
      &&
      match t.optimist with
      | None -> true
      | Some o -> (
        Optimist.note_all_executed o ~txn:st.txn.Txn.id;
        match Optimist.validate o ~txn:st.txn.Txn.id with
        | Ok () -> true
        | Error reason ->
          st.reason <- Reason_validation reason;
          false)
    in
    if commit && t.commit = Two_phase && not st.prepared then
      start_prepare_phase t st
    else begin_ending t st ~commit
  end

and begin_ending t (st : txn_state) ~commit =
  set_phase t st Ending;
  st.end_commit <- commit;
  st.round_failed <- false;
  st.round <- st.round + 1;
  let round = st.round in
  let sites_involved = involved_sites t st in
  st.pending_sites <- sites_involved;
  Log.debug (fun m ->
      m "t%d %s across [%s]" st.txn.Txn.id
        (if commit then "commit" else "abort")
        (String.concat ";" (List.map string_of_int sites_involved)));
  if sites_involved = [] then
    finalize t st (if commit then Txn.Committed else Txn.Aborted)
  else begin
    let msg =
      if commit then Msg.Commit { txn = st.txn.Txn.id }
      else Msg.Abort { txn = st.txn.Txn.id; quiet = false }
    in
    let send_pending () =
      List.iter
        (fun dst -> Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst msg)
        st.pending_sites
    in
    send_pending ();
    (* Commit/abort ride the reliable channel, but a partition (or crashed
       site) severs even that: keep nudging the silent sites. A site that
       already applied the outcome re-acknowledges idempotently. If the
       round never completes, conclude anyway — a commit is safe to
       finalize (the decision is recorded; an unreachable site resolves it
       by recovery query or a later retransmission), an abort falls back to
       the fail broadcast (Alg. 6 l. 6-9). *)
    retransmit_loop t
      ~still_pending:(fun () ->
        Hashtbl.mem t.txns st.txn.Txn.id
        && st.phase = Ending && st.round = round && st.pending_sites <> [])
      ~resend:send_pending
      ~give_up:(fun () -> conclude_ending t st ~forced:true)
  end

(* 2PC phase one: collect votes; every participant durably logs Prepared
   before voting yes. *)
and start_prepare_phase t (st : txn_state) =
  set_phase t st Preparing;
  st.round_failed <- false;
  st.round <- st.round + 1;
  let round = st.round in
  let sites_involved = involved_sites t st in
  st.pending_sites <- sites_involved;
  Log.debug (fun m ->
      m "t%d prepare across [%s]" st.txn.Txn.id
        (String.concat ";" (List.map string_of_int sites_involved)));
  let msg = Msg.Prepare { txn = st.txn.Txn.id } in
  let send_pending () =
    List.iter
      (fun dst -> Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst msg)
      st.pending_sites
  in
  send_pending ();
  (* A participant that logged Prepared re-votes from its WAL, so resending
     is idempotent; a vote round that never completes is a no-vote. *)
  retransmit_loop t
    ~still_pending:(fun () ->
      Hashtbl.mem t.txns st.txn.Txn.id
      && st.phase = Preparing && st.round = round && st.pending_sites <> [])
    ~resend:send_pending
    ~give_up:(fun () ->
      if st.phase = Preparing && st.round = round && st.pending_sites <> []
      then begin
        st.reason <- Reason_op_failure "prepare phase timed out";
        begin_ending t st ~commit:false
      end)

and conclude_prepare t (st : txn_state) =
  if st.round_failed then begin
    (* A participant voted no: abort (its Prepared record, if any,
       resolves as presumed abort). *)
    st.reason <- Reason_op_failure "prepare phase rejected";
    begin_ending t st ~commit:false
  end
  else begin
    st.prepared <- true;
    begin_ending t st ~commit:true
  end

and handle_vote t ~src ~txn ~ok =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if st.phase = Preparing && List.mem src st.pending_sites then begin
      if not ok then st.round_failed <- true;
      st.pending_sites <- List.filter (fun s -> s <> src) st.pending_sites;
      if st.pending_sites = [] then conclude_prepare t st
    end

and conclude_ending t (st : txn_state) ~forced =
  let failed = st.round_failed || (forced && st.pending_sites <> []) in
  if st.end_commit then begin
    if failed && not forced then begin
      (* Commit could not complete at some site: abort (Alg. 5 l. 6). *)
      st.reason <- Reason_op_failure "commit rejected at a site";
      begin_ending t st ~commit:false
    end
    else
      (* [forced]: the decision stands even if a site is unreachable — it
         learns the outcome from a recovery query or later delivery. *)
      finalize t st Txn.Committed
  end
  else if failed then begin
    (* Abort could not complete: tell everyone to fail the transaction
       (Alg. 6 l. 6-9). *)
    List.iter
      (fun dst ->
        if not (t.site_failed dst) then
          Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst
            (Msg.Abort { txn = st.txn.Txn.id; quiet = true }))
      (involved_sites t st);
    finalize t st Txn.Failed
  end
  else finalize t st Txn.Aborted

and handle_end_ack t ~src ~txn ~ok =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if st.phase = Ending && List.mem src st.pending_sites then begin
      if not ok then st.round_failed <- true;
      st.pending_sites <- List.filter (fun s -> s <> src) st.pending_sites;
      if st.pending_sites = [] then conclude_ending t st ~forced:false
    end

and finalize t (st : txn_state) status =
  (match (status, st.reason) with
   | Txn.Aborted, Reason_op_failure msg ->
     Log.debug (fun m -> m "t%d aborted: %s" st.txn.Txn.id msg)
   | _ -> ());
  set_phase t st Done;
  st.txn.Txn.status <- status;
  st.txn.Txn.finished_at <- Sim.now t.sim;
  t.stats.last_finish <- Sim.now t.sim;
  Hashtbl.remove t.txns st.txn.Txn.id;
  (match t.optimist with
   | Some o -> Optimist.remove o ~txn:st.txn.Txn.id
   | None -> ());
  Hashtbl.replace t.outcomes st.txn.Txn.id
    (status = Txn.Committed, st.txn.Txn.coordinator);
  t.active <- t.active - 1;
  sample_concurrency t;
  (match (status, t.history) with
   | Txn.Committed, Some h ->
     History.note_commit h ~txn:st.txn.Txn.id ~time:(Sim.now t.sim)
   | (Txn.Aborted | Txn.Failed), Some h -> History.note_abort h ~txn:st.txn.Txn.id
   | _ -> ());
  (match status with
   | Txn.Committed ->
     t.stats.committed <- t.stats.committed + 1;
     Vec.push t.stats.response_times (Txn.response_time st.txn);
     Vec.push t.stats.commit_stamps st.txn.Txn.finished_at
   | Txn.Aborted -> (
     t.stats.aborted <- t.stats.aborted + 1;
     match st.reason with
     | Reason_deadlock ->
       t.stats.deadlock_aborts <- t.stats.deadlock_aborts + 1
     | Reason_validation _ ->
       t.stats.validation_aborts <- t.stats.validation_aborts + 1
     | Reason_normal | Reason_op_failure _ -> ())
   | Txn.Failed -> t.stats.failed <- t.stats.failed + 1
   | Txn.Active | Txn.Waiting -> assert false);
  st.on_finish st.txn

(* A recovering participant asking how an in-doubt transaction ended.
   Finalized: answer from the outcome store. Still deciding: stay silent —
   the participant's backoff re-asks, and an answer exists once the
   decision is made. Never heard of: silence too; the participant's capped
   retry then resolves it as presumed abort, which is right. *)
let handle_outcome_query t ~src ~txn =
  match Hashtbl.find_opt t.outcomes txn with
  | Some (committed, coord) ->
    Net.dispatch t.net ~src:coord ~dst:src ~channel:Unreliable
      (Msg.Outcome_reply { txn; committed })
  | None -> (
    match Hashtbl.find_opt t.txns txn with
    | Some st when st.phase = Ending ->
      (* Decided but not yet finalized: the outcome is already fixed. *)
      Net.dispatch t.net ~src:st.txn.Txn.coordinator ~dst:src
        ~channel:Unreliable
        (Msg.Outcome_reply { txn; committed = st.end_commit })
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let dispatch t ~src (msg : Msg.t) =
  match msg with
  | Msg.Op_status { txn; attempt; seq; granted; status; _ } ->
    handle_op_status t ~src ~txn ~attempt ~seq ~granted status
  | Msg.Vote { txn; ok } -> handle_vote t ~src ~txn ~ok
  | Msg.End_ack { txn; ok } -> handle_end_ack t ~src ~txn ~ok
  | Msg.Wake { txn } -> handle_wake t ~txn
  | Msg.Wound { txn } -> handle_wound t ~txn
  | Msg.Victim { txn } -> handle_victim t ~txn
  | Msg.Outcome_query { txn } -> handle_outcome_query t ~src ~txn
  | Msg.Op_ship _ | Msg.Op_undo _ | Msg.Prepare _ | Msg.Commit _
  | Msg.Abort _ | Msg.Wfg_request | Msg.Wfg_reply _ | Msg.Outcome_reply _ ->
    (* participant-bound: not ours *)
    ()

(* ------------------------------------------------------------------ *)
(* Static delivery classification (consumed by Dtx_cert)               *)
(* ------------------------------------------------------------------ *)

(* One constructor per way a delivered message can relate to the machine.
   The string is the provenance note the certifier reports: for [Handled]
   the handler's action, for [Ignored] the guard that makes dropping safe,
   for [Impossible] why the pair cannot be delivered here at all. There is
   deliberately no "silently dropped" constructor — a pair that reaches
   [dispatch] and matches no row below is exactly the bug the certifier
   exists to find. *)
type disposition =
  | Handled of string
  | Ignored of string
  | Impossible of string

(* The coordinator's (phase x Msg.Kind) table, kept next to [dispatch] and
   the handlers so a new handler guard and its classification are edited
   together. Every [Ignored] row names the staleness/idempotency guard in
   the matching handler that makes the drop deliberate. *)
let classify_delivery (phase : phase) (kind : Msg.Kind.t) : disposition =
  let participant_bound =
    Impossible "participant-bound: Cluster.route delivers to Participant"
  in
  match (kind : Msg.Kind.t) with
  | Msg.Kind.Op_ship | Msg.Kind.Op_undo | Msg.Kind.Prepare | Msg.Kind.Commit
  | Msg.Kind.Abort | Msg.Kind.Wfg_request | Msg.Kind.Outcome_reply ->
    participant_bound
  | Msg.Kind.Wfg_reply ->
    Impossible "detector-bound: Cluster.route delivers to the WFG detector"
  | Msg.Kind.Op_status -> (
    match phase with
    | Awaiting_replies ->
      Handled "handle_op_status: advance / undo-and-wait / abort"
    | Executing | Waiting | Preparing | Ending | Done ->
      Ignored
        "stale or duplicated status reply: handle_op_status requires \
         phase = Awaiting_replies and a matching (attempt, seq)")
  | Msg.Kind.Vote -> (
    match phase with
    | Preparing -> Handled "handle_vote: record vote, conclude when round empty"
    | Executing | Awaiting_replies | Waiting | Ending | Done ->
      Ignored
        "duplicated or stale vote: handle_vote requires phase = Preparing \
         and src in pending_sites")
  | Msg.Kind.End_ack -> (
    match phase with
    | Ending -> Handled "handle_end_ack: record ack, finalize when round empty"
    | Executing | Awaiting_replies | Waiting | Preparing | Done ->
      Ignored
        "duplicated or stale end-ack: handle_end_ack requires phase = \
         Ending and src in pending_sites")
  | Msg.Kind.Wake -> (
    match phase with
    | Waiting -> Handled "handle_wake: resume, reschedule coordinator_step"
    | Executing | Awaiting_replies ->
      Handled
        "handle_wake: latch wake_pending so enter_wait retries instead of \
         sleeping (lost-wakeup guard)"
    | Preparing | Ending | Done ->
      Ignored "wake for a finishing transaction: outcome already decided")
  | Msg.Kind.Wound -> (
    match phase with
    | Executing | Awaiting_replies | Waiting ->
      Handled "handle_wound: abort (wound-wait)"
    | Preparing | Ending | Done ->
      Ignored "wound for a finishing transaction: outcome already decided")
  | Msg.Kind.Victim -> (
    match phase with
    | Executing | Awaiting_replies | Waiting ->
      Handled "handle_victim: abort the detector's chosen cycle victim"
    | Preparing | Ending | Done ->
      Ignored "victim for a finishing transaction: outcome already decided")
  | Msg.Kind.Outcome_query -> (
    match phase with
    | Done -> Handled "handle_outcome_query: answer from the outcome store"
    | Ending ->
      Handled
        "handle_outcome_query: the decision is fixed; answer st.end_commit"
    | Executing | Awaiting_replies | Waiting | Preparing ->
      Ignored
        "outcome not yet decided: stay silent, the recovering \
         participant's capped backoff re-queries (or presumes abort)")

(* Phase peek for the certifier's dynamic cross-check: a transaction the
   coordinator no longer tracks but whose outcome is recorded is [Done]
   (finalize removes from [txns] and inserts into [outcomes] atomically
   within one handler). *)
let phase_of t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | Some st -> Some st.phase
  | None -> if Hashtbl.mem t.outcomes txn then Some Done else None

let submit t ~client ~coordinator ~ops ~on_finish =
  let id = t.next_txn_id in
  t.next_txn_id <- id + 1;
  let txn = Txn.create ~id ~client ~coordinator ops in
  txn.Txn.submitted_at <- Sim.now t.sim;
  (* Precompute the transaction's site footprint once, here at submit: the
     catalog never changes during a run, so the shipping loop and the end
     protocol read these instead of re-deriving them per round. *)
  let op_sites =
    Array.map
      (fun (r : Txn.op_record) ->
        List.sort compare (Allocation.sites_of t.catalog r.Txn.doc))
      txn.Txn.ops
  in
  let involved =
    List.sort_uniq compare
      (coordinator
      :: Array.fold_left (fun acc ss -> List.rev_append ss acc) [] op_sites)
  in
  (* The Commute protocol's admission step: classify every operation
     against the active set; provably-commuting ones ship optimistic. *)
  let opt_flags =
    match t.optimist with
    | None -> [||]
    | Some o ->
      Optimist.admit o ~txn:id
        ~ops:
          (Array.map
             (fun (r : Txn.op_record) -> (r.Txn.doc, r.Txn.op))
             txn.Txn.ops)
  in
  let st =
    { txn; on_finish; opt_flags; op_sites; involved;
      phase = Executing; attempt = 0; batch = [];
      sites_left = []; sites_done = []; awaiting_site = None;
      awaiting_seq = None; wake_pending = false; prepared = false;
      end_commit = false; pending_sites = []; round_failed = false;
      round = 0; reason = Reason_normal }
  in
  Hashtbl.replace t.txns id st;
  (match t.tracer with
   | Some tr -> tr ~txn:id ~from_:None ~to_:Executing
   | None -> ());
  t.stats.submitted <- t.stats.submitted + 1;
  t.active <- t.active + 1;
  sample_concurrency t;
  (* The chaos safety valve: a transaction stranded by faults the
     retransmission layer cannot beat (e.g. a never-healed partition
     swallowing its Wake) is aborted outright after [txn_timeout_ms].
     Transactions already in their end protocol are left to the
     retransmission give-up paths. *)
  (match t.txn_timeout_ms with
   | None -> ()
   | Some timeout ->
     ignore
       (Sim.schedule t.sim ~delay:timeout (fun () ->
            if Hashtbl.mem t.txns id && not (finishing st) then begin
              Log.debug (fun m -> m "t%d transaction timeout" id);
              st.reason <- Reason_op_failure "transaction timed out";
              start_end_protocol t st ~commit:false
            end)));
  ignore
    (Sim.schedule t.sim ~delay:t.cost.Cost.sched_ms (fun () ->
         coordinator_step t st));
  txn
