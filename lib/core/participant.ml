module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg

type event =
  | Undone of { txn : int; op_index : int; attempt : int }
  | Prepared of { txn : int }
  | Finished of { txn : int; committed : bool }
  | Executed of { txn : int; seq : int }
  | Crashed
  | Restarted
  | Recovery_begun of { in_doubt : int list }
  | Recovery_resolved of { txn : int; committed : bool }

let pp_event ppf = function
  | Undone { txn; op_index; attempt } ->
    Format.fprintf ppf "t%d op%d undone (attempt %d)" txn op_index attempt
  | Prepared { txn } -> Format.fprintf ppf "t%d logged Prepared" txn
  | Finished { txn; committed } ->
    Format.fprintf ppf "t%d finished locally (%s)" txn
      (if committed then "commit" else "abort")
  | Executed { txn; seq } ->
    Format.fprintf ppf "t%d shipment s%d executed" txn seq
  | Crashed -> Format.fprintf ppf "crashed (volatile state lost)"
  | Restarted -> Format.fprintf ppf "restarted"
  | Recovery_begun { in_doubt } ->
    Format.fprintf ppf "recovery begun (in doubt:%s)"
      (String.concat ""
         (List.map (fun t -> Printf.sprintf " t%d" t) in_doubt))
  | Recovery_resolved { txn; committed } ->
    Format.fprintf ppf "t%d resolved by recovery (%s)" txn
      (if committed then "commit" else "abort")

type ctx = {
  sim : Sim.t;
  net : Net.t;
  cost : Cost.t;
  site : Site.t;
  two_phase : bool;
  site_failed : unit -> bool;
  txn_live : txn:int -> attempt:int -> bool;
  retransmit_ms : float option;
  replies : (int * int, Msg.t option) Hashtbl.t;
  txn_seqs : (int, int list ref) Hashtbl.t;
  ended : (int, bool) Hashtbl.t;
  recovering : (int, unit) Hashtbl.t;
  mutable tracer : (event -> unit) option;
}

let emit ctx ev =
  match ctx.tracer with Some tr -> tr ev | None -> ()

(* Serialize heavy work on the site's scheduler: run [k] once the site is
   free; [k] must set [busy_until] itself (via [charge]). *)
let rec on_site_free ctx k =
  let now = Sim.now ctx.sim in
  if now >= ctx.site.Site.busy_until then k ()
  else
    ignore
      (Sim.schedule_at ctx.sim ~time:ctx.site.Site.busy_until (fun () ->
           on_site_free ctx k))

let charge ctx cost = ctx.site.Site.busy_until <- Sim.now ctx.sim +. cost

let reply ctx ~dst ?channel msg =
  Net.dispatch ctx.net ~src:ctx.site.Site.id ~dst ?channel msg

let wake_waiters ctx waiters =
  List.iter
    (fun (w : Site.waiter) ->
      reply ctx ~dst:w.Site.waiting_coordinator
        (Msg.Wake { txn = w.Site.waiting_txn }))
    waiters

(* At-most-once bookkeeping: remember the final reply of each (txn, seq)
   shipment so a retransmitted or duplicated copy is answered from the
   cache instead of re-executed. *)
let cache_start ctx ~txn ~seq =
  Hashtbl.replace ctx.replies (txn, seq) None;
  let l =
    match Hashtbl.find_opt ctx.txn_seqs txn with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace ctx.txn_seqs txn l;
      l
  in
  l := seq :: !l

let cache_reply ctx ~txn ~seq msg = Hashtbl.replace ctx.replies (txn, seq) (Some msg)

let forget_txn ctx ~txn =
  (match Hashtbl.find_opt ctx.txn_seqs txn with
   | Some l -> List.iter (fun seq -> Hashtbl.remove ctx.replies (txn, seq)) !l
   | None -> ());
  Hashtbl.remove ctx.txn_seqs txn

(* Algorithm 2: run a shipment of operations through the local LockManager
   and report how far it got. Replies ride the unreliable channel; the
   coordinator retransmits, and the (txn, seq) cache makes that safe. *)
let handle_op_ship ctx ~src ~txn ~attempt ~seq ops =
  let status ~granted ~result_nodes st =
    Msg.Op_status
      { txn; attempt; seq; granted; status = st;
        result_bytes = result_nodes * ctx.cost.Cost.result_bytes_per_node }
  in
  if ctx.site_failed () then
    reply ctx ~dst:src ~channel:Unreliable
      (status ~granted:0 ~result_nodes:0 (Msg.Failed "site unavailable"))
  else
    match Hashtbl.find_opt ctx.replies (txn, seq) with
    | Some None -> () (* still executing; the pending reply covers this copy *)
    | Some (Some r) -> reply ctx ~dst:src ~channel:Unreliable r
    | None ->
      if Hashtbl.length ctx.recovering > 0 then
        (* In-doubt transactions still hold durable promises here; refuse
           new work until every one is resolved (reply left uncached so a
           post-recovery retransmission succeeds). *)
        reply ctx ~dst:src ~channel:Unreliable
          (status ~granted:0 ~result_nodes:0 (Msg.Failed "recovering"))
      else begin
        cache_start ctx ~txn ~seq;
        on_site_free ctx (fun () ->
            if not (ctx.txn_live ~txn ~attempt) then begin
              let r = status ~granted:0 ~result_nodes:0 (Msg.Failed "transaction ended") in
              cache_reply ctx ~txn ~seq r;
              reply ctx ~dst:src ~channel:Unreliable r
            end
            else begin
              Site.note_coordinator ctx.site ~txn ~coordinator:src;
              emit ctx (Executed { txn; seq });
              let c = ctx.cost in
              (* Execute in shipment order, stopping at the first operation the
                 LockManager does not grant; the granted prefix keeps its locks
                 and effects (the coordinator advances past it). *)
              let rec go todo granted work result_nodes =
                match todo with
                | [] -> (granted, work, result_nodes, Msg.Granted)
                | (s : Msg.shipment) :: rest -> (
                  let outcome =
                    Site.process_operation ~optimistic:s.Msg.s_optimistic
                      ctx.site ~txn ~op_index:s.Msg.s_index ~attempt
                      ~doc:s.Msg.s_doc s.Msg.s_op
                  in
                  match outcome with
                  | Site.Granted { lock_requests; touched; result_nodes = rn } ->
                    let work =
                      work +. c.Cost.sched_ms
                      +. (float_of_int lock_requests *. c.Cost.lock_request_ms)
                      +. (float_of_int touched *. c.Cost.node_touch_ms)
                    in
                    go rest (granted + 1) work (result_nodes + rn)
                  | Site.Blocked { lock_requests; blockers; wound } ->
                    List.iter
                      (fun b ->
                        Site.register_waiter ctx.site ~blocker:b
                          { Site.waiting_txn = txn; waiting_coordinator = src })
                      blockers;
                    (* Wound-wait: tell each younger holder's coordinator to
                       abort it; the requester's wake arrives when their locks
                       release. *)
                    List.iter
                      (fun victim ->
                        match Site.coordinator_of ctx.site ~txn:victim with
                        | Some coord -> reply ctx ~dst:coord (Msg.Wound { txn = victim })
                        | None -> ())
                      wound;
                    ( granted,
                      work +. c.Cost.sched_ms
                      +. (float_of_int lock_requests *. c.Cost.lock_request_ms),
                      result_nodes, Msg.Blocked )
                  | Site.Deadlock { lock_requests } ->
                    ( granted,
                      work +. c.Cost.sched_ms
                      +. (float_of_int lock_requests *. c.Cost.lock_request_ms),
                      result_nodes, Msg.Deadlock )
                  | Site.Op_failed msg ->
                    (granted, work +. c.Cost.sched_ms, result_nodes, Msg.Failed msg))
              in
              let granted, work, result_nodes, st = go ops 0 0.0 0 in
              charge ctx work;
              ignore
                (Sim.schedule ctx.sim ~delay:work (fun () ->
                     let r = status ~granted ~result_nodes st in
                     cache_reply ctx ~txn ~seq r;
                     reply ctx ~dst:src ~channel:Unreliable r))
            end)
      end

(* Alg. 1 l. 16: reverse one operation; its released locks may already
   unblock a waiter. *)
let handle_op_undo ctx ~txn ~op_index ~attempt =
  on_site_free ctx (fun () ->
      Site.undo_operation ~only_attempt:attempt ctx.site ~txn ~op_index;
      emit ctx (Undone { txn; op_index; attempt });
      charge ctx ctx.cost.Cost.sched_ms;
      wake_waiters ctx (Site.take_waiters ctx.site ~blocker:txn))

(* 2PC phase one: durably log Prepared before voting yes. The record
   carries the coordinator and the redo list, so the yes vote survives a
   crash (see Wal). A duplicated Prepare re-votes from the WAL instead of
   logging twice. *)
let handle_prepare ctx ~src ~txn =
  if ctx.site_failed () then reply ctx ~dst:src (Msg.Vote { txn; ok = false })
  else
    match Wal.outcome_of ctx.site.Site.wal txn with
    | `In_doubt | `Committed -> reply ctx ~dst:src (Msg.Vote { txn; ok = true })
    | `Aborted -> reply ctx ~dst:src (Msg.Vote { txn; ok = false })
    | `Unknown ->
      if Site.coordinator_of ctx.site ~txn = None then
        (* No trace of this transaction — its execution died in a crash
           before anything was logged. A yes vote would promise a redo we
           do not have, so refuse and let the coordinator abort. *)
        reply ctx ~dst:src (Msg.Vote { txn; ok = false })
      else
      on_site_free ctx (fun () ->
          Wal.append ctx.site.Site.wal
            (Wal.Prepared
               { txn; time = Sim.now ctx.sim; coord = src;
                 redo = Site.txn_redo ctx.site ~txn });
          emit ctx (Prepared { txn });
          let work = ctx.cost.Cost.sched_ms in
          charge ctx work;
          ignore
            (Sim.schedule ctx.sim ~delay:work (fun () ->
                 reply ctx ~dst:src (Msg.Vote { txn; ok = true }))))

(* Resolve one in-doubt transaction from its durable Prepared record: a
   committed outcome replays the redo list against the recovered store (the
   volatile effects died with the crash); an aborted — or unknown, i.e.
   presumed-abort — outcome just records Aborted, since nothing uncommitted
   ever reached the store. *)
let resolve_in_doubt ctx ~txn ~committed =
  Hashtbl.remove ctx.recovering txn;
  let wal = ctx.site.Site.wal in
  if committed then begin
    (match Wal.prepared_record wal txn with
     | Some (_, redo) -> (
       match Site.replay_redo ctx.site redo with
       | Ok _ -> ()
       | Error e -> failwith (Printf.sprintf "site %d: %s" ctx.site.Site.id e))
     | None -> ());
    Wal.append wal (Wal.Committed { txn; time = Sim.now ctx.sim })
  end
  else Wal.append wal (Wal.Aborted { txn; time = Sim.now ctx.sim });
  Hashtbl.replace ctx.ended txn committed;
  emit ctx (Recovery_resolved { txn; committed });
  emit ctx (Finished { txn; committed })

(* Algorithms 5/6 participant side: persist or undo, release locks, wake
   waiters, acknowledge. Idempotent: a retransmitted Commit/Abort for an
   already-ended transaction is re-acknowledged without re-applying, and one
   arriving at a restarted site resolves the in-doubt record by replay. *)
let handle_end ctx ~src ~txn ~commit =
  if ctx.site_failed () then
    (* "the message sent to the site is not served" (Alg. 5 l. 5 / 6 l. 5) *)
    reply ctx ~dst:src (Msg.End_ack { txn; ok = false })
  else if Hashtbl.mem ctx.ended txn then
    reply ctx ~dst:src (Msg.End_ack { txn; ok = true })
  else if Hashtbl.mem ctx.recovering txn then begin
    resolve_in_doubt ctx ~txn ~committed:commit;
    reply ctx ~dst:src (Msg.End_ack { txn; ok = true })
  end
  else
    on_site_free ctx (fun () ->
        if Hashtbl.mem ctx.ended txn then
          reply ctx ~dst:src (Msg.End_ack { txn; ok = true })
        else begin
        let touched = Site.txn_touched_total ctx.site ~txn in
        let waiters = Site.finish_txn ctx.site ~txn ~commit in
        Hashtbl.replace ctx.ended txn commit;
        forget_txn ctx ~txn;
        emit ctx (Finished { txn; committed = commit });
        (* The outcome record follows the DataManager write-back, so the
           durable store and the log can never disagree (see Wal). *)
        if ctx.two_phase then
          Wal.append ctx.site.Site.wal
            (if commit then Wal.Committed { txn; time = Sim.now ctx.sim }
             else Wal.Aborted { txn; time = Sim.now ctx.sim });
        let c = ctx.cost in
        let work =
          c.Cost.sched_ms
          +.
          if commit then float_of_int touched *. c.Cost.persist_node_ms
          else float_of_int touched *. c.Cost.node_touch_ms
        in
        charge ctx work;
        wake_waiters ctx waiters;
        ignore
          (Sim.schedule ctx.sim ~delay:work (fun () ->
               reply ctx ~dst:src (Msg.End_ack { txn; ok = true })))
        end)

(* Alg. 6 l. 6-9: the best-effort "fail everywhere" broadcast — release
   whatever this site holds, wake nobody, acknowledge nothing. *)
let handle_quiet_abort ctx ~txn =
  if not (Hashtbl.mem ctx.ended txn) then begin
    ignore (Site.finish_txn ctx.site ~txn ~commit:false);
    forget_txn ctx ~txn;
    emit ctx (Finished { txn; committed = false })
  end

let handle_wfg_request ctx ~src =
  let snap = Site.wfg_snapshot ctx.site in
  reply ctx ~dst:src (Msg.Wfg_reply { edges = Dtx_locks.Wfg.edges snap })

let handle_outcome_reply ctx ~txn ~committed =
  if Hashtbl.mem ctx.recovering txn then resolve_in_doubt ctx ~txn ~committed

(* Keep asking the coordinator until the in-doubt transaction resolves (the
   query or its answer may be lost to the very faults that caused the
   crash). Capped: after [max_queries] the answer is presumed abort. *)
let max_queries = 12

let rec query_outcome ctx ~txn ~tries =
  if Hashtbl.mem ctx.recovering txn then
    match Wal.prepared_record ctx.site.Site.wal txn with
    | None -> resolve_in_doubt ctx ~txn ~committed:false
    | Some (coord, _) ->
      if tries >= max_queries then resolve_in_doubt ctx ~txn ~committed:false
      else begin
        reply ctx ~dst:coord ~channel:Unreliable (Msg.Outcome_query { txn });
        match ctx.retransmit_ms with
        | None -> ()
        | Some base ->
          let backoff = base *. Float.of_int (1 lsl min tries 6) in
          ignore
            (Sim.schedule ctx.sim ~delay:backoff (fun () ->
                 query_outcome ctx ~txn ~tries:(tries + 1)))
      end

let crash ctx =
  Hashtbl.reset ctx.replies;
  Hashtbl.reset ctx.txn_seqs;
  Hashtbl.reset ctx.ended;
  Hashtbl.reset ctx.recovering;
  emit ctx Crashed

let restart ctx =
  emit ctx Restarted;
  let in_doubt = Wal.in_doubt ctx.site.Site.wal in
  List.iter (fun txn -> Hashtbl.replace ctx.recovering txn ()) in_doubt;
  emit ctx (Recovery_begun { in_doubt });
  List.iter (fun txn -> query_outcome ctx ~txn ~tries:0) in_doubt

let recovering ctx =
  Hashtbl.fold (fun txn () acc -> txn :: acc) ctx.recovering [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Static delivery classification (consumed by Dtx_cert)               *)
(* ------------------------------------------------------------------ *)

(* The participant has no explicit phase field; its observable state is
   derived from the four bookkeeping tables, in precedence order — a
   recovering transaction may also appear in [ended] (once resolved) and a
   live one always has cached seqs. *)
type pstate = P_idle | P_executing | P_ended | P_recovering

let pstate_to_string = function
  | P_idle -> "Idle"
  | P_executing -> "Executing"
  | P_ended -> "Ended"
  | P_recovering -> "Recovering"

let state_of ctx ~txn =
  if Hashtbl.mem ctx.recovering txn then P_recovering
  else if Hashtbl.mem ctx.ended txn then P_ended
  else if Hashtbl.mem ctx.txn_seqs txn then P_executing
  else P_idle

type disposition = Coordinator.disposition =
  | Handled of string
  | Ignored of string
  | Impossible of string

(* The participant's (state x Msg.Kind) table, kept next to [handle] so a
   handler change and its classification are edited together. Most handler
   entry points are deliberately total over the derived state — idempotency
   and the WAL carry the burden — so most rows are [Handled] with the
   state-specific action named. *)
let classify_delivery (state : pstate) (kind : Msg.Kind.t) : disposition =
  let coordinator_bound =
    Impossible "coordinator-bound: Cluster.route delivers to Coordinator"
  in
  match (kind : Msg.Kind.t) with
  | Msg.Kind.Op_status | Msg.Kind.Vote | Msg.Kind.End_ack | Msg.Kind.Wake
  | Msg.Kind.Wound | Msg.Kind.Victim | Msg.Kind.Outcome_query ->
    coordinator_bound
  | Msg.Kind.Wfg_reply ->
    Impossible "detector-bound: Cluster.route delivers to the WFG detector"
  | Msg.Kind.Op_ship -> (
    match state with
    | P_idle -> Handled "handle_op_ship: fresh execution via the LockManager"
    | P_executing ->
      Handled
        "handle_op_ship: (txn, seq) reply cache absorbs duplicates; a new \
         seq executes"
    | P_ended ->
      Handled
        "handle_op_ship: txn_live refuses with Failed \"transaction \
         ended\" (forget_txn wiped the reply cache)"
    | P_recovering ->
      Handled
        "handle_op_ship: refused with Failed \"recovering\", reply \
         uncached so a post-recovery retransmission succeeds")
  | Msg.Kind.Op_undo ->
    Handled
      "handle_op_undo: undo_operation is attempt-guarded and idempotent \
       in every state"
  | Msg.Kind.Prepare -> (
    match state with
    | P_idle | P_executing ->
      Handled "handle_prepare: log Prepared (or refuse if no redo), vote"
    | P_ended | P_recovering ->
      Handled
        "handle_prepare: re-vote from the WAL outcome (In_doubt/Committed \
         -> yes, Aborted -> no) without logging twice")
  | Msg.Kind.Commit | Msg.Kind.Abort -> (
    match state with
    | P_idle | P_executing ->
      Handled "handle_end/handle_quiet_abort: persist or undo, release, ack"
    | P_ended -> Handled "handle_end: re-acknowledge without re-applying"
    | P_recovering ->
      Handled "handle_end: resolve_in_doubt from the durable record, ack")
  | Msg.Kind.Wfg_request ->
    Handled "handle_wfg_request: stateless wait-for-graph snapshot"
  | Msg.Kind.Outcome_reply -> (
    match state with
    | P_recovering ->
      Handled "handle_outcome_reply: resolve_in_doubt with the answer"
    | P_idle | P_executing | P_ended ->
      Ignored
        "late or duplicated recovery answer: handle_outcome_reply only \
         acts while the transaction is in [recovering]")

let handle ctx ~src (msg : Msg.t) =
  match msg with
  | Msg.Op_ship { txn; attempt; seq; ops } ->
    handle_op_ship ctx ~src ~txn ~attempt ~seq ops
  | Msg.Op_undo { txn; op_index; attempt } -> handle_op_undo ctx ~txn ~op_index ~attempt
  | Msg.Prepare { txn } -> handle_prepare ctx ~src ~txn
  | Msg.Commit { txn } -> handle_end ctx ~src ~txn ~commit:true
  | Msg.Abort { txn; quiet = false } -> handle_end ctx ~src ~txn ~commit:false
  | Msg.Abort { txn; quiet = true } -> handle_quiet_abort ctx ~txn
  | Msg.Wfg_request -> handle_wfg_request ctx ~src
  | Msg.Outcome_reply { txn; committed } -> handle_outcome_reply ctx ~txn ~committed
  | Msg.Op_status _ | Msg.Vote _ | Msg.End_ack _ | Msg.Wake _ | Msg.Wound _
  | Msg.Victim _ | Msg.Wfg_reply _ | Msg.Outcome_query _ ->
    (* coordinator-bound: not ours *)
    ()
