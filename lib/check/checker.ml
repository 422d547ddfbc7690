module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Table = Dtx_locks.Table
module Mode = Dtx_locks.Mode
module Wfg = Dtx_locks.Wfg
module Coordinator = Dtx.Coordinator
module Participant = Dtx.Participant
module Cluster = Dtx.Cluster
module History = Dtx.History
module Site = Dtx.Site
module Json = Dtx_util.Json

type event =
  | Lock of { site : int; ev : Table.event }
  | Net of { src : int; dst : int; dir : Net.dir; msg : Msg.t }
  | Phase of {
      txn : int;
      from_ : Coordinator.phase option;
      to_ : Coordinator.phase;
    }
  | Part of { site : int; ev : Participant.event }

let txn_of = function
  | Lock { ev = Table.Acquired { txn; _ } | Table.Released { txn; _ }; _ } ->
    Some txn
  | Lock { ev = Table.Cleared; _ } -> None
  | Net { msg; _ } -> Msg.txn msg
  | Phase { txn; _ } -> Some txn
  | Part
      { ev =
          ( Participant.Undone { txn; _ }
          | Participant.Prepared { txn }
          | Participant.Finished { txn; _ }
          | Participant.Executed { txn; _ }
          | Participant.Recovery_resolved { txn; _ } );
        _
      } -> Some txn
  | Part
      { ev =
          ( Participant.Crashed | Participant.Restarted
          | Participant.Recovery_begun _ );
        _
      } -> None

let pp_event ppf = function
  | Lock { site; ev } -> Format.fprintf ppf "site %d: %a" site Table.pp_event ev
  | Net { src; dst; dir; msg } ->
    Format.fprintf ppf "%s %d->%d: %a"
      (match dir with
       | Net.Send -> "send"
       | Net.Drop -> "drop"
       | Net.Deliver -> "deliver")
      src dst Msg.pp msg
  | Phase { txn; from_; to_ } ->
    Format.fprintf ppf "t%d: %s -> %s" txn
      (match from_ with
       | Some p -> Coordinator.phase_to_string p
       | None -> "(submitted)")
      (Coordinator.phase_to_string to_)
  | Part { site; ev } ->
    Format.fprintf ppf "site %d: %a" site Participant.pp_event ev

type violation = {
  v_invariant : string;
  v_txn : int option;
  v_site : int option;
  v_detail : string;
  v_time : float;
  v_suffix : (float * event) list;
}

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>[%s]%s%s at %.2f ms: %s" v.v_invariant
    (match v.v_txn with Some id -> Printf.sprintf " t%d" id | None -> "")
    (match v.v_site with Some s -> Printf.sprintf " site %d" s | None -> "")
    v.v_time v.v_detail;
  if v.v_suffix <> [] then begin
    Format.fprintf ppf "@,offending event suffix:";
    List.iter
      (fun (time, ev) -> Format.fprintf ppf "@,  %8.2f  %a" time pp_event ev)
      v.v_suffix
  end;
  Format.fprintf ppf "@]"

let violation_json v =
  let opt = function Some i -> string_of_int i | None -> "null" in
  Printf.sprintf
    "{\"invariant\":%s,\"txn\":%s,\"site\":%s,\"time_ms\":%.3f,\"detail\":%s}"
    (Json.string v.v_invariant) (opt v.v_txn) (opt v.v_site) v.v_time
    (Json.string v.v_detail)

(* All mirror state is keyed by plain tuples in polymorphic hashtables: the
   checker runs off the hot path, so clarity wins over interning. *)
type t = {
  ring : (float * event) option array;
  suffix_limit : int;
  mutable head : int;  (* next write slot *)
  mutable last_time : float;
  mutable violations : violation list;  (* newest first *)
  mutable history : History.t option;
  (* --- lock mirror --- *)
  counts : (int * int * Table.resource * Mode.t, int) Hashtbl.t;
      (* (site, txn, resource, mode) -> refcount *)
  txn_locks : (int * int, (Table.resource * Mode.t, unit) Hashtbl.t) Hashtbl.t;
  res_holders : (int * Table.resource, (int * Mode.t, unit) Hashtbl.t) Hashtbl.t;
  ended : (int * int, unit) Hashtbl.t;
      (* (site, txn): end-of-transaction release seen at this site *)
  (* --- coordinator FSM and 2PC mirror --- *)
  txn_phase : (int, Coordinator.phase) Hashtbl.t;
  prepare_sent : (int * int, unit) Hashtbl.t;  (* (txn, dst site) *)
  vote_yes : (int * int, unit) Hashtbl.t;  (* (txn, src site) *)
  vote_no : (int, unit) Hashtbl.t;
  prepared_logged : (int * int, unit) Hashtbl.t;  (* (site, txn) *)
  committed : (int, unit) Hashtbl.t;  (* saw a local commit apply *)
  (* --- all-or-nothing operation mirror --- *)
  granted_sites : (int * int * int, unit) Hashtbl.t;  (* (txn, attempt, site) *)
  undo_due : (int * int * int, unit) Hashtbl.t;  (* (txn, attempt, site) *)
  (* --- deadlock detector mirror --- *)
  mutable round_wfg : Wfg.t;
  mutable last_wfg_dst : int;
  birth : (int, float) Hashtbl.t;
      (* txn -> admission time (first Phase event), mirroring the
         coordinator's submission timestamps for the victim rule *)
  (* --- fault/recovery mirror --- *)
  executed : (int * int * int, unit) Hashtbl.t;
      (* (site, txn, seq): shipment executions, for the double-apply check;
         a site's entries die with it at Crashed (so did the effects) *)
  commit_issued : (int, unit) Hashtbl.t;  (* saw a Commit sent for txn *)
  recovery_pending : (int * int, unit) Hashtbl.t;  (* (site, txn) in doubt *)
  mutable link_cut : (time:float -> src:int -> dst:int -> bool) option;
      (* fault-plan oracle: is this link severed (partition or crash)? *)
}

let create ?(ring = 256) ?(suffix = 30) () =
  if ring < 1 then invalid_arg "Checker.create: ring must be positive";
  if suffix < 0 then invalid_arg "Checker.create: suffix must be non-negative";
  { ring = Array.make ring None;
    suffix_limit = suffix;
    head = 0;
    last_time = 0.0;
    violations = [];
    history = None;
    counts = Hashtbl.create 256;
    txn_locks = Hashtbl.create 64;
    res_holders = Hashtbl.create 256;
    ended = Hashtbl.create 64;
    txn_phase = Hashtbl.create 64;
    prepare_sent = Hashtbl.create 16;
    vote_yes = Hashtbl.create 16;
    vote_no = Hashtbl.create 16;
    prepared_logged = Hashtbl.create 16;
    committed = Hashtbl.create 64;
    granted_sites = Hashtbl.create 64;
    undo_due = Hashtbl.create 16;
    round_wfg = Wfg.create ();
    last_wfg_dst = min_int;
    birth = Hashtbl.create 64;
    executed = Hashtbl.create 64;
    commit_issued = Hashtbl.create 64;
    recovery_pending = Hashtbl.create 16;
    link_cut = None }

let set_link_oracle t o = t.link_cut <- o

let violations t = List.rev t.violations

(* The most recent ring-buffer events relevant to [txn] (events carrying no
   transaction id — clears, WFG traffic — are kept as context), capped so a
   report stays readable. This is the "minimal offending event suffix". *)
let suffix t ~txn =
  let cap = Array.length t.ring in
  let newest_first = ref [] in
  for i = 0 to cap - 1 do
    match t.ring.((t.head + i) mod cap) with
    | None -> ()
    | Some ((_, ev) as entry) ->
      let keep =
        match txn with
        | None -> true
        | Some id -> ( match txn_of ev with Some id' -> id' = id | None -> true)
      in
      if keep then newest_first := entry :: !newest_first
  done;
  let rec take n l =
    if n = 0 then []
    else match l with [] -> [] | x :: rest -> x :: take (n - 1) rest
  in
  List.rev (take t.suffix_limit !newest_first)

let violate t ?txn ?site ~invariant fmt =
  Format.kasprintf
    (fun detail ->
      t.violations <-
        { v_invariant = invariant;
          v_txn = txn;
          v_site = site;
          v_detail = detail;
          v_time = t.last_time;
          v_suffix = suffix t ~txn }
        :: t.violations)
    fmt

(* ------------------------------------------------------------------ *)
(* Lock mirror: S2PL discipline, grant compatibility, balance          *)
(* ------------------------------------------------------------------ *)

let member tbl key = Hashtbl.mem tbl key

let index_add tbl key sub =
  let set =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace tbl key s;
      s
  in
  Hashtbl.replace set sub ()

let index_remove tbl key sub =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some s ->
    Hashtbl.remove s sub;
    if Hashtbl.length s = 0 then Hashtbl.remove tbl key

let on_lock t ~site ev =
  match ev with
  | Table.Acquired { txn; resource; mode } ->
    if member t.ended (site, txn) then
      violate t ~txn ~site ~invariant:"s2pl-discipline"
        "t%d acquires %s on %a after its end-of-transaction release" txn
        (Mode.to_string mode) Table.pp_resource resource;
    (match Hashtbl.find_opt t.res_holders (site, resource) with
     | None -> ()
     | Some holders ->
       Hashtbl.iter
         (fun (otxn, omode) () ->
           if otxn <> txn && not (Mode.compatible omode mode) then
             violate t ~txn ~site ~invariant:"lock-compat"
               "t%d granted %s on %a while t%d holds incompatible %s" txn
               (Mode.to_string mode) Table.pp_resource resource otxn
               (Mode.to_string omode))
         holders);
    let key = (site, txn, resource, mode) in
    let n = match Hashtbl.find_opt t.counts key with Some n -> n | None -> 0 in
    Hashtbl.replace t.counts key (n + 1);
    index_add t.txn_locks (site, txn) (resource, mode);
    index_add t.res_holders (site, resource) (txn, mode)
  | Table.Released { txn; resource; mode; count; kind } ->
    (match kind with
     | Table.End_of_txn -> Hashtbl.replace t.ended (site, txn) ()
     | Table.Undo -> ());
    let key = (site, txn, resource, mode) in
    let held =
      match Hashtbl.find_opt t.counts key with Some n -> n | None -> 0
    in
    if held < count then
      violate t ~txn ~site ~invariant:"lock-balance"
        "t%d releases %d grant(s) of %s on %a but holds only %d" txn count
        (Mode.to_string mode) Table.pp_resource resource held;
    let left = max 0 (held - count) in
    if left = 0 then begin
      Hashtbl.remove t.counts key;
      index_remove t.txn_locks (site, txn) (resource, mode);
      index_remove t.res_holders (site, resource) (txn, mode)
    end
    else Hashtbl.replace t.counts key left
  | Table.Cleared ->
    (* Crash simulation: the site's volatile lock state is gone; forget our
       mirror of it (outstanding balances die with the site). *)
    let stale tbl keep =
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
      List.iter (fun k -> if not (keep k) then Hashtbl.remove tbl k) keys
    in
    stale t.counts (fun (s, _, _, _) -> s <> site);
    stale t.txn_locks (fun (s, _) -> s <> site);
    stale t.res_holders (fun (s, _) -> s <> site)

(* ------------------------------------------------------------------ *)
(* Participant events: undo discharge, prepares, local finishes        *)
(* ------------------------------------------------------------------ *)

let obligations_of t ~txn ~site =
  Hashtbl.fold
    (fun ((txn', _, site') as key) () acc ->
      if txn' = txn && (site = None || site = Some site') then key :: acc
      else acc)
    t.undo_due []

let on_part t ~site ev =
  match ev with
  | Participant.Undone { txn; op_index = _; attempt } ->
    Hashtbl.remove t.undo_due (txn, attempt, site)
  | Participant.Prepared { txn } ->
    Hashtbl.replace t.prepared_logged (site, txn) ()
  | Participant.Executed { txn; seq } ->
    (* At-most-once: the participant's (txn, seq) cache must absorb every
       duplicated or retransmitted shipment. *)
    if member t.executed (site, txn, seq) then
      violate t ~txn ~site ~invariant:"dedup"
        "shipment (t%d, seq %d) executed twice at site %d — duplicate \
         delivery double-applied"
        txn seq site
    else Hashtbl.replace t.executed (site, txn, seq) ()
  | Participant.Crashed ->
    (* The site's volatile effects died; so does our execution mirror of
       them (a post-restart re-execution applies to the recovered store,
       not on top of the lost effects). *)
    let keys =
      Hashtbl.fold
        (fun ((s, _, _) as k) () acc -> if s = site then k :: acc else acc)
        t.executed []
    in
    List.iter (Hashtbl.remove t.executed) keys
  | Participant.Restarted -> ()
  | Participant.Recovery_begun { in_doubt } ->
    List.iter
      (fun txn -> Hashtbl.replace t.recovery_pending (site, txn) ())
      in_doubt
  | Participant.Recovery_resolved { txn; committed } ->
    if not (member t.recovery_pending (site, txn)) then
      violate t ~txn ~site ~invariant:"recovery"
        "t%d resolved at site %d without a pending in-doubt record" txn site;
    Hashtbl.remove t.recovery_pending (site, txn);
    if committed then begin
      if not (member t.commit_issued txn) then
        violate t ~txn ~site ~invariant:"recovery"
          "t%d resolved as committed at site %d but no Commit was ever \
           issued for it (phantom commit)"
          txn site
    end
    else if member t.committed txn then
      (* The core durability promise: a write the system committed must
         survive the crash — resolving its Prepared record as an abort
         discards it. *)
      violate t ~txn ~site ~invariant:"recovery"
        "t%d applied a commit elsewhere but site %d resolved its in-doubt \
         record as an abort: committed write lost"
        txn site
  | Participant.Finished { txn; committed } ->
    Hashtbl.replace t.ended (site, txn) ();
    (match Hashtbl.find_opt t.txn_locks (site, txn) with
     | Some set when Hashtbl.length set > 0 ->
       let names =
         Hashtbl.fold
           (fun (r, m) () acc ->
             Format.asprintf "%s %a" (Mode.to_string m) Table.pp_resource r
             :: acc)
           set []
       in
       violate t ~txn ~site ~invariant:"lock-balance"
         "t%d finished at site %d still holding %s" txn site
         (String.concat ", " names)
     | _ -> ());
    Hashtbl.remove t.txn_locks (site, txn);
    let pending = obligations_of t ~txn ~site:(Some site) in
    if committed then begin
      Hashtbl.replace t.committed txn ();
      List.iter
        (fun ((_, attempt, _) as key) ->
          Hashtbl.remove t.undo_due key;
          violate t ~txn ~site ~invariant:"atomic-undo"
            "t%d committed at site %d with the partial execution of attempt \
             %d never undone"
            txn site attempt)
        pending
    end
    else
      (* A local abort rolls back everything, obligations included. *)
      List.iter (Hashtbl.remove t.undo_due) pending

(* ------------------------------------------------------------------ *)
(* Coordinator FSM conformance                                         *)
(* ------------------------------------------------------------------ *)

let legal_transition from_ to_ =
  match (from_, to_) with
  | None, Coordinator.Executing -> true
  | None, _ -> false
  | Some f, _ -> (
    match (f, to_) with
    | ( Coordinator.Executing,
        (Coordinator.Awaiting_replies | Coordinator.Preparing | Coordinator.Ending)
      ) -> true
    | ( Coordinator.Awaiting_replies,
        (Coordinator.Executing | Coordinator.Waiting | Coordinator.Ending) ) ->
      true
    | Coordinator.Waiting, (Coordinator.Executing | Coordinator.Ending) -> true
    | Coordinator.Preparing, Coordinator.Ending -> true
    | Coordinator.Ending, Coordinator.Done -> true
    | _, _ -> false)

let on_phase t ~txn ~from_ ~to_ =
  if not (legal_transition from_ to_) then
    violate t ~txn ~invariant:"fsm-conformance"
      "illegal coordinator transition for t%d: %s -> %s" txn
      (match from_ with
       | Some p -> Coordinator.phase_to_string p
       | None -> "(submitted)")
      (Coordinator.phase_to_string to_);
  Hashtbl.replace t.txn_phase txn to_

(* ------------------------------------------------------------------ *)
(* Message-level checks: shipments, 2PC ordering, deadlock victims     *)
(* ------------------------------------------------------------------ *)

let expect_phase t ~txn ~kind expected =
  match Hashtbl.find_opt t.txn_phase txn with
  | None -> ()  (* transaction predates attachment: nothing to hold it to *)
  | Some p ->
    if not (List.mem p expected) then
      violate t ~txn ~invariant:"fsm-conformance"
        "%s for t%d sent in phase %s (expected %s)" kind txn
        (Coordinator.phase_to_string p)
        (String.concat " or " (List.map Coordinator.phase_to_string expected))

let on_net t ~src ~dst dir (msg : Msg.t) =
  match (dir, msg) with
  | Net.Send, Msg.Op_ship { txn; _ } ->
    expect_phase t ~txn ~kind:"Op_ship" [ Coordinator.Awaiting_replies ]
  | Net.Send, Msg.Prepare { txn } ->
    expect_phase t ~txn ~kind:"Prepare" [ Coordinator.Preparing ];
    Hashtbl.replace t.prepare_sent (txn, dst) ()
  | Net.Send, Msg.Commit { txn } ->
    expect_phase t ~txn ~kind:"Commit" [ Coordinator.Ending ];
    Hashtbl.replace t.commit_issued txn ();
    let prepared =
      Hashtbl.fold
        (fun (txn', site) () acc -> if txn' = txn then site :: acc else acc)
        t.prepare_sent []
    in
    if prepared <> [] then begin
      (* 2PC: a Commit may only follow a unanimous yes vote round. *)
      if member t.vote_no txn then
        violate t ~txn ~invariant:"2pc-order"
          "Commit for t%d sent although a participant voted no" txn;
      List.iter
        (fun site ->
          if not (member t.vote_yes (txn, site)) then
            violate t ~txn ~site ~invariant:"2pc-order"
              "Commit for t%d sent before site %d was prepared (no yes vote \
               delivered)"
              txn site)
        prepared
    end
  | Net.Send, Msg.Abort { txn; _ } ->
    expect_phase t ~txn ~kind:"Abort" [ Coordinator.Ending ]
  | Net.Send, Msg.Victim { txn } ->
    (match Wfg.find_cycle t.round_wfg with
     | None ->
       violate t ~txn ~invariant:"deadlock-victim"
         "t%d aborted as deadlock victim but the detector round's unioned \
          WFG has no cycle"
         txn
     | Some cycle ->
       (* Mirror of [Coordinator.newest_of]: newest admission time, ties
          broken by the larger id; transactions whose admission predates
          attachment rank oldest. *)
       let birth id =
         match Hashtbl.find_opt t.birth id with
         | Some tm -> tm
         | None -> neg_infinity
       in
       let newest =
         List.fold_left
           (fun best id ->
             match best with
             | None -> Some id
             | Some b ->
               let c = compare (birth id) (birth b) in
               if c > 0 || (c = 0 && id > b) then Some id else best)
           None cycle
       in
       (match newest with
        | Some newest when newest <> txn ->
          violate t ~txn ~invariant:"deadlock-victim"
            "t%d chosen as victim but t%d is the newest transaction in the \
             cycle [%s]"
            txn newest
            (String.concat " -> " (List.map string_of_int cycle))
        | _ -> ()));
    Wfg.clear t.round_wfg;
    t.last_wfg_dst <- min_int
  | Net.Send, Msg.Wfg_request ->
    (* The detector polls sites in ascending order, one request at a time;
       a non-increasing destination starts a new collection round. *)
    if dst <= t.last_wfg_dst then Wfg.clear t.round_wfg;
    t.last_wfg_dst <- dst
  | Net.Deliver, Msg.Wfg_reply { edges } ->
    List.iter
      (fun (w, h) -> Wfg.add_wait t.round_wfg ~waiter:w ~holders:[ h ])
      edges
  | Net.Deliver, Msg.Vote { txn; ok } ->
    if ok then begin
      if not (member t.prepared_logged (src, txn)) then
        violate t ~txn ~site:src ~invariant:"2pc-prepare"
          "site %d voted yes for t%d without a durably logged Prepared record"
          src txn;
      Hashtbl.replace t.vote_yes (txn, src) ()
    end
    else Hashtbl.replace t.vote_no txn ()
  | Net.Deliver, Msg.Op_status { txn; attempt; status; _ } -> (
    match status with
    | Msg.Granted -> Hashtbl.replace t.granted_sites (txn, attempt, src) ()
    | Msg.Blocked ->
      (* Alg. 1 l. 15-17: the sites where this attempt already executed must
         each see an undo before the transaction can commit. *)
      Hashtbl.iter
        (fun (txn', attempt', site) () ->
          if txn' = txn && attempt' = attempt then
            Hashtbl.replace t.undo_due (txn, attempt, site) ())
        t.granted_sites
    | Msg.Deadlock | Msg.Failed _ -> ())
  | Net.Deliver, Msg.Outcome_reply { txn; committed } ->
    (* The coordinator's answer must agree with what it did: a committed
       answer requires an issued Commit; an abort answer for a transaction
       whose commit was issued is the lost-write path in the making (the
       receiving site checks again at resolution). *)
    if committed && not (member t.commit_issued txn) then
      violate t ~txn ~invariant:"recovery"
        "outcome reply says t%d committed but no Commit was ever issued" txn
  | (Net.Send | Net.Drop | Net.Deliver), _ -> ()

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)
(* ------------------------------------------------------------------ *)

let emit t ~time ev =
  if time > t.last_time then t.last_time <- time;
  t.ring.(t.head) <- Some (time, ev);
  t.head <- (t.head + 1) mod Array.length t.ring;
  match ev with
  | Lock { site; ev } -> on_lock t ~site ev
  | Part { site; ev } -> on_part t ~site ev
  | Phase { txn; from_; to_ } ->
    if from_ = None && not (Hashtbl.mem t.birth txn) then
      Hashtbl.replace t.birth txn time;
    on_phase t ~txn ~from_ ~to_
  | Net { src; dst; dir; msg } ->
    (match (dir, t.link_cut) with
     | Net.Deliver, Some cut when src <> dst && cut ~time ~src ~dst ->
       violate t ?txn:(txn_of ev) ~site:dst ~invariant:"partition"
         "message delivered %d->%d while the fault plan has the link severed"
         src dst
     | _ -> ());
    on_net t ~src ~dst dir msg

(* All five trace streams arrive through the cluster's unified tracer; this
   adapter narrows them to the checker's event type (and applies a seeded
   fault's [mutate] tap). *)
let attach ?mutate t cluster =
  t.history <- Some (Cluster.enable_history cluster);
  let feed ~time ev =
    let ev = match mutate with None -> Some ev | Some f -> f ev in
    match ev with Some ev -> emit t ~time ev | None -> ()
  in
  Cluster.attach_tracer cluster (fun ~time tev ->
      match tev with
      | Cluster.Tr_tick ->
        (* Clock monotonicity, checked inline: sim ticks are far too
           frequent to push through the ring. *)
        if time +. 1e-9 < t.last_time then
          violate t ~invariant:"sim-clock"
            "simulation clock moved backwards: %.6f after %.6f" time
            t.last_time
      | Cluster.Tr_net { src; dst; dir; msg } ->
        feed ~time (Net { src; dst; dir; msg })
      | Cluster.Tr_phase { txn; from_; to_ } ->
        feed ~time (Phase { txn; from_; to_ })
      | Cluster.Tr_lock { site; ev } -> feed ~time (Lock { site; ev })
      | Cluster.Tr_part { site; ev } -> feed ~time (Part { site; ev }))

let finish t =
  (* The mode lattice is state the whole run depended on; re-verify it so a
     single [finish] covers every invariant family. *)
  (match Lattice.check () with
   | Ok () -> ()
   | Error msgs ->
     List.iter (fun m -> violate t ~invariant:"mode-lattice" "%s" m) msgs);
  (* Undo obligations that never discharged, for transactions that actually
     committed somewhere (aborted transactions are cleaned by Alg. 6). *)
  Hashtbl.iter
    (fun (txn, attempt, site) () ->
      if member t.committed txn then
        violate t ~txn ~site ~invariant:"atomic-undo"
          "t%d committed but the partial execution of attempt %d at site %d \
           was never undone"
          txn attempt site)
    t.undo_due;
  (* Every prepared transaction must resolve: an in-doubt record left at
     the end of the run means recovery stalled. *)
  Hashtbl.iter
    (fun (site, txn) () ->
      violate t ~txn ~site ~invariant:"recovery"
        "t%d still in doubt at site %d at end of run (never resolved)" txn
        site)
    t.recovery_pending;
  (* Conflict-serializability of the committed history (precedence graph
     over the recorded, still-valid accesses). *)
  (match t.history with
   | None -> ()
   | Some h -> (
     match History.check_serializable h with
     | Ok () -> ()
     | Error msg -> violate t ~invariant:"serializability" "%s" msg));
  violations t
