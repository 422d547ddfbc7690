(* Dtx_cert — the symbolic soundness certifier.

   Two no-execution passes over every protocol:

   (a) lock-coverage soundness on a bounded universe: a semantic conflict
       oracle (read/write sets over (node, aspect) pairs) decides which
       operation pairs conflict, and every conflicting pair must receive
       lock footprints with at least one incompatible pair — except the
       documented XDGL positional gap, which is reported with provenance
       rather than failed.  Non-conflicting pairs whose locks still collide
       are counted as false collisions, yielding a precision metric.
   (b) FSM exhaustiveness: the static (phase x message-kind) classification
       tables co-located with the coordinator/participant handlers are
       walked in full, and cross-checked against the (state, kind) pairs a
       battery of explore-style runs actually delivers — including 2PC,
       deadlock-victim and crash/restart recovery choreographies.  A
       reachable pair the table calls impossible (or, under the seeded
       [Drop_handler] fault, drops) fails certification.  WAL crash points
       are mapped to their recovery transitions symbolically.

   Seeded faults ([mutation]) invert each pass for self-testing; the
   fault registry ([Dtx_faults.Faults]) runs all three and requires the pass
   each one sits in to reject it. *)

module Ast = Dtx_xpath.Ast
module Xml_parser = Dtx_xml.Parser
module Dg = Dtx_dataguide.Dataguide
module Op = Dtx_update.Op
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Protocol = Dtx_protocol.Protocol
module Commute_rules = Dtx_protocol.Commute_rules
module Xdgl_rules = Dtx_protocol.Xdgl_rules
module Msg = Dtx_net.Msg
module Net = Dtx_net.Net
module Sim = Dtx_sim.Sim
module Cluster = Dtx.Cluster
module Coordinator = Dtx.Coordinator
module Participant = Dtx.Participant
module Site = Dtx.Site
module Wal = Dtx.Wal
module Explore = Dtx_explore.Explore
module Json = Dtx_util.Json

(* ------------------------------------------------------------------ *)
(* Seeded faults                                                       *)

type mutation =
  | Flip_compat_bit  (** treat ST/IX as compatible in the collision check *)
  | Drop_handler  (** classify the coordinator's (Waiting, Wake) as dropped *)
  | Weaken_commute  (** replace the commute verdicts with a gap-blind rule *)

(* ------------------------------------------------------------------ *)
(* The bounded universe                                                *)

let universe_name = "U"
let universe_xml = "<r><a><b>1</b><b>2</b><c>t</c></a><d><b>3</b></d></r>"

(* Small enough that the all-pairs loop is instant, rich enough to exercise
   every operation family, shared and disjoint subtrees, a predicate, a
   descendant axis, same-label and fresh-label inserts (the latter paired
   with REMOVE is the canonical positional-gap pair), and a transpose. *)
let template_texts =
  [
    "QUERY /r/a";
    "QUERY /r/a/b";
    "QUERY //b";
    "QUERY /r/a[c = \"t\"]";
    "QUERY /r/d";
    "CHANGE /r/a/c TO \"u\"";
    "CHANGE /r/a TO \"w\"";
    "CHANGE /r/d/b TO \"v\"";
    "REMOVE /r/a/b";
    "REMOVE /r/d";
    "RENAME /r/a/c TO e";
    "INSERT INTO /r/a <c>x</c>";
    "INSERT INTO /r/d <z>x</z>";
    "INSERT AFTER /r/a/b <b>9</b>";
    "INSERT AFTER /r/a/b <n>9</n>";
    "INSERT BEFORE /r/a/c <q>p</q>";
    "TRANSPOSE /r/d/b INTO /r/a";
  ]

let parse_universe () = Xml_parser.parse ~name:universe_name universe_xml

let parse_templates () =
  List.map
    (fun s ->
      match Op.parse s with
      | Ok op -> (s, op)
      | Error e -> invalid_arg (Printf.sprintf "cert template %S: %s" s e))
    template_texts
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The semantic conflict oracle                                        *)

(* An operation's footprint on the universe as reads/writes of
   (node, aspect) pairs:
   - [A_struct]: the node's existence and label;
   - [A_content]: its text;
   - [A_list]: its child list (order and membership).
   Two operations conflict when some (node, aspect) sees a write from one
   and any access from the other — except two [A_list] writes, because
   sibling order among independently inserted/removed children is
   deliberately left unordered (XDGL's SI/SA/SB design).  [a_positional]
   tags the S-read an AFTER/BEFORE insert performs on the node whose
   position it reads — exactly the access XDGL's connect-node locks do not
   cover (the documented gap): a conflict that vanishes when positional
   accesses are dropped is classified [known-gap], not a violation. *)
type aspect = A_struct | A_content | A_list

type access = {
  a_node : int;
  a_aspect : aspect;
  a_write : bool;
  a_positional : bool;
}

let conflicts ?(include_positional = true) acc1 acc2 =
  let kept a = include_positional || not a.a_positional in
  List.exists
    (fun a1 ->
      kept a1
      && List.exists
           (fun a2 ->
             kept a2 && a1.a_node = a2.a_node && a1.a_aspect = a2.a_aspect
             && (a1.a_write || a2.a_write)
             && not (a1.a_aspect = A_list && a1.a_write && a2.a_write))
           acc2)
    acc1

let pred_target_paths p =
  List.map
    (fun (prefix, rel) -> Xdgl_rules.concat_path prefix rel)
    (Ast.predicate_paths p)

let last_label (p : Ast.path) =
  match List.rev p.Ast.steps with
  | { Ast.test = Ast.Name l; _ } :: _ -> Some l
  | _ -> None

let frag_label fragment =
  match Xdgl_rules.frag_root_label fragment with
  | Some l -> l
  | None -> "#frag"

(* The oracle reads the lock rules' tree views ([Xdgl_rules.guide_view],
   [Xdgl_rules.instance_view]): guide nodes are label paths — conservative
   (instances of one path are merged) and phantom-aware (insert targets
   exist as guide nodes after warm-up); instance nodes are document nodes —
   phantom-blind, matching what instance-granular protocols can lock, so
   the connect node's child-list write carries an insert's conflict.  The
   one oracle-only rule: a RENAME relabels a guide node's whole subtree
   (every label path below it changes) but only the instance node itself.
   A view's landing is what tells them apart. *)
let renamed (v : _ Xdgl_rules.view) n =
  match v.landing with Some _ -> v.subtree n | None -> [ n ]

let accesses (v : _ Xdgl_rules.view) op =
  let acc = ref [] in
  let add ?(positional = false) ~write n aspect =
    acc :=
      { a_node = v.id n; a_aspect = aspect; a_write = write;
        a_positional = positional }
      :: !acc
  in
  let nav ?(positional = false) p =
    let matches = v.select p in
    List.iter
      (fun n ->
        add ~positional ~write:false n A_struct;
        List.iter (fun a -> add ~write:false a A_struct) (v.ancestors n))
      matches;
    List.iter
      (fun pp ->
        List.iter
          (fun n ->
            add ~write:false n A_struct;
            add ~write:false n A_content)
          (v.select pp))
      (pred_target_paths p);
    matches
  in
  let parents ns = List.filter_map v.parent ns in
  let write_landing aspects connect label =
    Option.iter
      (fun landing ->
        let u = landing connect label in
        List.iter (add ~write:true u) aspects)
      v.landing
  in
  (* REMOVE, and the source side of TRANSPOSE. *)
  let detach ns =
    List.iter
      (fun n ->
        List.iter
          (fun d ->
            add ~write:true d A_struct;
            add ~write:true d A_content)
          (v.subtree n))
      ns;
    List.iter (fun par -> add ~write:true par A_list) (parents ns)
  in
  (* INSERT, and the destination side of TRANSPOSE. *)
  let attach connect label =
    add ~write:true connect A_list;
    write_landing [ A_struct; A_content ] connect label
  in
  (match op with
  | Op.Query p ->
    List.iter
      (fun n ->
        List.iter
          (fun d ->
            add ~write:false d A_struct;
            add ~write:false d A_content;
            add ~write:false d A_list)
          (v.subtree n))
      (nav p)
  | Op.Change { target; new_text = _ } ->
    List.iter (fun n -> add ~write:true n A_content) (nav target)
  | Op.Remove p -> detach (nav p)
  | Op.Rename { target; new_label } ->
    let matches = nav target in
    List.iter
      (fun n -> List.iter (fun d -> add ~write:true d A_struct) (renamed v n))
      matches;
    List.iter
      (fun par -> write_landing [ A_struct ] par new_label)
      (parents matches)
  | Op.Insert { target; pos = Op.Into; fragment } ->
    List.iter (fun n -> attach n (frag_label fragment)) (nav target)
  | Op.Insert { target; pos = Op.After | Op.Before; fragment } ->
    List.iter
      (fun par -> attach par (frag_label fragment))
      (parents (nav ~positional:true target))
  | Op.Transpose { source; dest } ->
    let src = nav source in
    let dst = nav dest in
    detach src;
    List.iter
      (fun n ->
        match last_label source with
        | Some l -> attach n l
        | None -> add ~write:true n A_list)
      dst);
  !acc

let build_guide_oracle ops =
  let v = Xdgl_rules.guide_view (Dg.build (parse_universe ())) in
  (* Warm-up: drive the guide's insert/rename/transpose phantom nodes to
     their fixed point, so every access list is computed against one
     consistent shape (mirrors Commute_rules.prepare) and the view's
     [ensure_path] landing only looks up afterwards. *)
  Array.iter (fun (_, op) -> ignore (accesses v op)) ops;
  Array.map (fun (_, op) -> accesses v op) ops

let build_instance_oracle ops =
  let v = Xdgl_rules.instance_view (parse_universe ()) in
  Array.map (fun (_, op) -> accesses v op) ops

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type proto_report = {
  pr_name : string;
  pr_pairs : int;
  pr_conflicting : int;
  pr_known_gaps : int;  (** conflicts excused by the positional gap *)
  pr_false_collisions : int;  (** non-conflicting pairs whose locks collide *)
  pr_precision : float;
  pr_commute_checked : int;
      (** commute-only: pairs put through the three-way c1/c2/c3 agreement *)
  pr_violations : string list;
}

type fsm_report = {
  f_machine : string;
  f_handled : int;
  f_ignored : int;
  f_impossible : int;
  f_dropped : int;  (** only under the [Drop_handler] fault *)
  f_reached : int;  (** distinct (state, kind) pairs delivered by the runs *)
  f_violations : string list;
}

type report = {
  r_protocols : proto_report list;
  r_fsm : fsm_report list;
  r_required_missing : string list;
      (** certifier self-integrity: pairs the runs were designed to reach *)
  r_wal_violations : string list;
  r_universe_seconds : float;  (** pass (a): oracle build + all-pairs loop *)
  r_runtime_seconds : float;
  r_violations : int;
  r_certified : bool;
}

(* ------------------------------------------------------------------ *)
(* Pass (a): lock-coverage soundness + precision                       *)

let footprints kind ops =
  let inst = Protocol.create kind in
  Protocol.add_doc inst (parse_universe ());
  (* Warm pass: XDGL-family derivation grows the DataGuide for insert
     targets; a second pass snapshots footprints against the fixed point. *)
  Array.iter
    (fun (_, op) -> ignore (Protocol.lock_requests inst ~doc:universe_name op))
    ops;
  Array.map
    (fun (_, op) ->
      match Protocol.lock_requests inst ~doc:universe_name op with
      | Ok (reqs, _) -> Ok reqs
      | Error e -> Error e)
    ops

let pair_name ops i j = Printf.sprintf "[%s] x [%s]" (fst ops.(i)) (fst ops.(j))

(* The weakened commute rule seeded by [Weaken_commute]: no virtual reads,
   no Unknown — blind to the positional gap, which pass (a) must notice. *)
let weakened_verdict ops fps i j =
  let _, op_i = ops.(i) and _, op_j = ops.(j) in
  if (not (Op.is_update op_i)) && not (Op.is_update op_j) then
    Commute_rules.Commutes
  else
    match (fps.(i), fps.(j)) with
    | Ok f1, Ok f2 when Table.lists_conflict ~compat:Mode.compatible f1 f2 ->
      Commute_rules.Conflicts
    | _ -> Commute_rules.Commutes

let certify_protocol ~compat ~mutate ~guide_oracle ~instance_oracle ops kind =
  let name = Protocol.kind_to_string kind in
  let oracle =
    if Protocol.uses_dataguide kind then guide_oracle else instance_oracle
  in
  let fps = footprints kind ops in
  let is_commute = kind = Protocol.commute in
  let verdict =
    if not is_commute then fun _ _ -> Commute_rules.Unknown
    else if mutate = Some Weaken_commute then weakened_verdict ops fps
    else begin
      let cr =
        Commute_rules.create ~protocol:kind ~docs:[ parse_universe () ]
      in
      let prepared =
        Commute_rules.prepare cr
          (Array.map (fun (_, op) -> (universe_name, op)) ops)
      in
      fun i j -> Commute_rules.decide_prepared prepared.(i) prepared.(j)
    end
  in
  let n = Array.length ops in
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let pairs = ref 0 and conflicting = ref 0 and gaps = ref 0 in
  let false_collisions = ref 0 and nonconflicting = ref 0 in
  let commute_checked = ref 0 in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      incr pairs;
      match (fps.(i), fps.(j)) with
      | Error e, _ | _, Error e ->
        fail "%s: %s: footprint underivable: %s" name (pair_name ops i j) e
      | Ok f1, Ok f2 ->
        let conflict = conflicts oracle.(i) oracle.(j) in
        let gap =
          conflict
          && not (conflicts ~include_positional:false oracle.(i) oracle.(j))
        in
        let collide = Table.lists_conflict ~compat f1 f2 in
        if conflict then incr conflicting else incr nonconflicting;
        if not is_commute then begin
          if conflict && not collide then
            if gap then incr gaps
            else
              fail
                "%s: %s: semantic conflict but lock footprints are fully \
                 compatible"
                name (pair_name ops i j);
          if (not conflict) && collide then incr false_collisions
        end
        else begin
          (* Three-way agreement for the optimistic protocol.  A Conflicts
             verdict on a pair the oracle clears is mere conservatism (the
             fallback locks need not collide there); the checks bind only
             where shipment safety or fallback safety is at stake. *)
          incr commute_checked;
          let v = verdict i j in
          if v = Commute_rules.Commutes && conflict then
            fail
              "Commute: %s: verdict Commutes but the oracle sees a conflict \
               (c1: unsafe optimistic shipment)"
              (pair_name ops i j);
          if conflict && v = Commute_rules.Conflicts && (not collide)
             && not gap
          then
            fail
              "Commute: %s: conflicting pair judged Conflicts but the XDGL \
               fallback locks never collide (c2)"
              (pair_name ops i j);
          if conflict && v <> Commute_rules.Conflicts
             && v <> Commute_rules.Commutes
             && (not collide) && not gap
          then
            fail
              "Commute: %s: conflicting pair left Unknown with neither \
               colliding fallback locks nor gap provenance (c3)"
              (pair_name ops i j);
          if conflict && gap then incr gaps;
          (* Precision under the optimistic downgrade: in either admission
             order, the earlier operation runs downgraded; the later one is
             downgraded only when the pair's verdict is Commutes.
             Downgrading never creates a collision XDGL did not have —
             [compatible m1 m2] implies [compatible (intention_for m1) m2]
             throughout the lattice — so the commute precision this models
             is provably >= XDGL's. *)
          if not conflict then begin
            let _, op_i = ops.(i) and _, op_j = ops.(j) in
            let opt1 = Site.optimistic_requests op_i f1
            and opt2 = Site.optimistic_requests op_j f2 in
            let late1 = if v = Commute_rules.Commutes then opt1 else f1
            and late2 = if v = Commute_rules.Commutes then opt2 else f2 in
            if
              Table.lists_conflict ~compat opt1 late2
              || Table.lists_conflict ~compat opt2 late1
            then incr false_collisions
          end
        end
    done
  done;
  let precision =
    if !nonconflicting = 0 then 1.0
    else
      1.0
      -. (float_of_int !false_collisions /. float_of_int !nonconflicting)
  in
  {
    pr_name = name;
    pr_pairs = !pairs;
    pr_conflicting = !conflicting;
    pr_known_gaps = !gaps;
    pr_false_collisions = !false_collisions;
    pr_precision = precision;
    pr_commute_checked = !commute_checked;
    pr_violations = List.rev !violations;
  }

(* ------------------------------------------------------------------ *)
(* Pass (b): FSM exhaustiveness                                        *)

let coordinator_phases =
  Coordinator.
    [ Executing; Awaiting_replies; Waiting; Preparing; Ending; Done ]

let participant_states =
  Participant.[ P_idle; P_executing; P_ended; P_recovering ]

(* A certifier-side disposition that adds the state a seeded fault
   produces: a reachable delivery the machine would silently lose. *)
type cdisposition =
  | C_handled
  | C_ignored
  | C_impossible
  | C_dropped

let classify_coordinator ~mutate phase kind =
  if mutate = Some Drop_handler && phase = Coordinator.Waiting
     && kind = Msg.Kind.Wake
  then C_dropped
  else
    match Coordinator.classify_delivery phase kind with
    | Coordinator.Handled _ -> C_handled
    | Coordinator.Ignored _ -> C_ignored
    | Coordinator.Impossible _ -> C_impossible

let classify_participant st kind =
  match Participant.classify_delivery st kind with
  | Participant.Handled _ -> C_handled
  | Participant.Ignored _ -> C_ignored
  | Participant.Impossible _ -> C_impossible

let participant_bound kind =
  match kind with
  | Msg.Kind.Op_ship | Msg.Kind.Op_undo | Msg.Kind.Prepare | Msg.Kind.Commit
  | Msg.Kind.Abort | Msg.Kind.Wfg_request | Msg.Kind.Outcome_reply ->
    true
  | _ -> false

(* Reachability recording: sample the destination machine's state at the
   instant of delivery.  The cluster tracer fires [Deliver] immediately
   before the handler runs, so the sample is the pre-handling state the
   classification tables describe. *)
type reached = {
  coord : (Coordinator.phase * Msg.Kind.t, unit) Hashtbl.t;
  part : (Participant.pstate * Msg.Kind.t, unit) Hashtbl.t;
}

let record_deliveries reached cluster ~time:_ ev =
  match ev with
  | Cluster.Tr_net { dst; dir = Net.Deliver; msg; _ } -> (
    let kind = Msg.kind msg in
    match (participant_bound kind, Msg.txn msg) with
    | true, txn ->
      let parts = Cluster.participants cluster in
      if dst >= 0 && dst < Array.length parts then
        (* A Wfg_request serves no transaction; it is sampled as idle. *)
        let st =
          match txn with
          | Some txn -> Participant.state_of parts.(dst) ~txn
          | None -> Participant.P_idle
        in
        Hashtbl.replace reached.part (st, kind) ()
    | false, Some txn -> (
      match Coordinator.phase_of (Cluster.coordinator cluster) ~txn with
      | Some phase -> Hashtbl.replace reached.coord (phase, kind) ()
      | None -> ())
    | false, None -> ()  (* Wfg_reply: detector-bound, no FSM *))
  | _ -> ()

let drive sim = Sim.run ~until:10_000.0 ~max_events:2_000_000 sim

(* Plain reachability runs: the explorer's scenarios, built through the
   very same [Explore.setup] every model-checking replay uses. *)
let scenario_run reached scen ~protocol ~two_phase =
  let sim, cluster = Explore.setup scen ~protocol ~two_phase in
  Cluster.attach_tracer cluster (record_deliveries reached cluster);
  Dtx_workload.Workload.submit_script cluster (Explore.scripts scen);
  drive sim

(* Crash/restart choreographies: a 2-site 2PC transaction whose remote
   participant crashes right after writing its Prepared record.  Crashed
   sites still NACK deliveries, so the crash window is modelled as a
   partition (a fault plan that swallows traffic to the down site) — the
   coordinator's retransmission path then drives recovery, exactly like
   the chaos harness. *)
let recovery_scenario =
  {
    Explore.sc_name = "recovery";
    sc_about = "2PC crash/restart reachability";
    sc_sites = 2;
    sc_docs =
      [
        ("A", "<r><a><x>0</x></a></r>", [ 0 ]);
        ("B", "<r><b><y>0</y></b></r>", [ 1 ]);
      ];
    sc_txns = [];
  }

let parse_op s =
  match Op.parse s with Ok op -> op | Error e -> invalid_arg e

(* One choreography: site 1 crashes 0.2 ms after its Prepared record and
   restarts [down_ms] later; from the restart, deliveries to the
   coordinator stall for [stall_ms], and [late] (if any) is submitted
   1 ms after it. *)
let recovery_run reached ~down_ms ~stall_ms ~late =
  let sim, cluster =
    Explore.setup ~retransmit_ms:2.0 recovery_scenario ~protocol:Protocol.xdgl
      ~two_phase:true
  in
  let net = Cluster.net cluster in
  let down : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let stall_until = ref neg_infinity in
  Net.set_fault net
    (Some
       {
         Net.f_offsets = (fun ~time:_ ~src:_ ~dst:_ _ _ -> [ 0.0 ]);
         f_deliverable =
           (fun ~time ~src:_ ~dst ->
             (not (Hashtbl.mem down dst))
             && not (dst = 0 && time < !stall_until));
       });
  let crashed = ref false in
  Cluster.attach_tracer cluster (fun ~time ev ->
      record_deliveries reached cluster ~time ev;
      match ev with
      | Cluster.Tr_part { site = 1; ev = Participant.Prepared _ }
        when not !crashed ->
        crashed := true;
        ignore
          (Sim.schedule sim ~delay:0.2 (fun () ->
               Hashtbl.replace down 1 ();
               Cluster.crash_site cluster ~site:1;
               ignore
                 (Sim.schedule sim ~delay:down_ms (fun () ->
                      Hashtbl.remove down 1;
                      stall_until := Sim.now sim +. stall_ms;
                      Cluster.restart_site cluster ~site:1;
                      if late <> [] then
                        ignore
                          (Sim.schedule sim ~delay:1.0 (fun () ->
                               ignore
                                 (Cluster.submit cluster ~client:99
                                    ~coordinator:0 ~ops:late
                                    ~on_finish:(fun _ -> ()))))))))
      | _ -> ());
  ignore
    (Cluster.submit cluster ~client:1 ~coordinator:0
       ~ops:
         [
           ("A", parse_op "CHANGE /r/a/x TO \"1\"");
           ("B", parse_op "CHANGE /r/b/y TO \"1\"");
         ]
       ~on_finish:(fun _ -> ()));
  drive sim

(* Pairs the run battery is designed to reach: their absence means the
   certifier's own reachability evidence broke, not the machine. *)
let required_coordinator =
  Coordinator.
    [
      (Awaiting_replies, Msg.Kind.Op_status);
      (Waiting, Msg.Kind.Wake);
      (Preparing, Msg.Kind.Vote);
      (Ending, Msg.Kind.End_ack);
      (Done, Msg.Kind.Outcome_query);
    ]

let required_participant =
  Participant.
    [
      (P_idle, Msg.Kind.Op_ship);
      (P_executing, Msg.Kind.Commit);
      (P_executing, Msg.Kind.Prepare);
      (P_recovering, Msg.Kind.Outcome_reply);
    ]

(* WAL crash points: every prefix of the participant's 2PC log must map to
   a recovery disposition the classification tables actually provide. *)
let wal_crash_point_checks () =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let mk entries =
    let w = Wal.create () in
    List.iter (Wal.append w) entries;
    w
  in
  let prep =
    Wal.Prepared
      { txn = 7; time = 1.0; coord = 0; redo = [ ("U", "CHANGE /r/a/c TO \"u\"") ] }
  in
  let handled = function Participant.Handled _ -> true | _ -> false in
  (* Crash before Prepared: nothing in doubt, presumed abort needs no
     transition. *)
  let w = mk [] in
  if Wal.in_doubt w <> [] then fail "WAL: empty log reports in-doubt txns";
  if Wal.outcome_of w 7 <> `Unknown then
    fail "WAL: empty log knows an outcome for txn 7";
  (* Crash after Prepared: in doubt; recovery must be able to consume the
     coordinator's Outcome_reply while recovering. *)
  let w = mk [ prep ] in
  if Wal.in_doubt w <> [ 7 ] then
    fail "WAL: Prepared-only log does not report txn 7 in doubt";
  if Wal.outcome_of w 7 <> `In_doubt then
    fail "WAL: Prepared-only log outcome is not `In_doubt";
  (match Wal.prepared_record w 7 with
  | Some (0, [ ("U", _) ]) -> ()
  | _ -> fail "WAL: Prepared-only log lost the (coord, redo) recovery inputs");
  if
    not
      (handled
         (Participant.classify_delivery Participant.P_recovering
            Msg.Kind.Outcome_reply))
  then
    fail
      "WAL: in-doubt crash point has no handled (P_recovering, \
       Outcome_reply) recovery transition";
  if
    not
      (handled
         (Participant.classify_delivery Participant.P_recovering
            Msg.Kind.Commit))
  then
    fail
      "WAL: in-doubt crash point cannot consume a retransmitted Commit \
       while recovering";
  let resolved = Wal.resolve_presumed_abort w in
  if resolved <> [ 7 ] then
    fail "WAL: resolve_presumed_abort did not settle txn 7";
  if Wal.in_doubt w <> [] || Wal.outcome_of w 7 <> `Aborted then
    fail "WAL: presumed abort left txn 7 unsettled";
  (* Crash after an outcome record: idempotent re-acknowledgement. *)
  List.iter
    (fun (entry, expect) ->
      let w = mk [ prep; entry ] in
      if Wal.in_doubt w <> [] then
        fail "WAL: outcome-recorded log still reports txn 7 in doubt";
      if Wal.outcome_of w 7 <> expect then
        fail "WAL: outcome-recorded log reports the wrong outcome";
      if
        not
          (handled
             (Participant.classify_delivery Participant.P_ended
                (match expect with
                | `Committed -> Msg.Kind.Commit
                | _ -> Msg.Kind.Abort)))
      then
        fail
          "WAL: finalized crash point cannot re-acknowledge a duplicated \
           outcome message")
    [
      (Wal.Committed { txn = 7; time = 2.0 }, `Committed);
      (Wal.Aborted { txn = 7; time = 2.0 }, `Aborted);
    ];
  List.rev !violations

let fsm_audit ~mutate () =
  let reached = { coord = Hashtbl.create 64; part = Hashtbl.create 64 } in
  scenario_run reached Explore.reference ~protocol:Protocol.xdgl
    ~two_phase:false;
  scenario_run reached Explore.disjoint ~protocol:Protocol.xdgl
    ~two_phase:false;
  scenario_run reached Explore.deadlock ~protocol:Protocol.xdgl
    ~two_phase:false;
  scenario_run reached Explore.reference ~protocol:Protocol.xdgl
    ~two_phase:true;
  (* R1 — fast restart: site 1 is back 30 ms later, while the coordinator
     is still retransmitting Commit, and its replies stall for 8 ms, so the
     restarted site stays in recovery long enough for a fresh shipment and
     the retransmitted Commit to land on it ([P_recovering] x
     Op_ship/Commit), and the coordinator answers the outcome query from
     [Ending]. *)
  recovery_run reached ~down_ms:30.0 ~stall_ms:8.0
    ~late:[ ("B", parse_op "CHANGE /r/b/y TO \"2\"") ];
  (* R2 — slow restart: the site stays down past the coordinator's
     retransmission give-up, so the transaction is finalized Committed
     without it; the restart resolves its in-doubt WAL record against a
     [Done] coordinator ([Done] x Outcome_query, [P_recovering] x
     Outcome_reply, redo replay).  A zero stall ends at restart time and
     never blocks a delivery. *)
  recovery_run reached ~down_ms:1200.0 ~stall_ms:0.0 ~late:[];
  let audit machine states classify state_name reached_tbl =
    let handled = ref 0 and ignored = ref 0 in
    let impossible = ref 0 and dropped = ref 0 in
    let violations = ref [] in
    List.iter
      (fun st ->
        List.iter
          (fun kind ->
            let c = classify st kind in
            (match c with
            | C_handled -> incr handled
            | C_ignored -> incr ignored
            | C_impossible -> incr impossible
            | C_dropped -> incr dropped);
            if Hashtbl.mem reached_tbl (st, kind) then
              match c with
              | C_handled | C_ignored -> ()
              | C_impossible ->
                violations :=
                  Printf.sprintf
                    "%s: (%s, %s) was delivered by a run but is classified \
                     impossible"
                    machine (state_name st) (Msg.Kind.to_string kind)
                  :: !violations
              | C_dropped ->
                violations :=
                  Printf.sprintf
                    "%s: (%s, %s) is reachable but silently dropped"
                    machine (state_name st) (Msg.Kind.to_string kind)
                  :: !violations)
          Msg.Kind.all)
      states;
    {
      f_machine = machine;
      f_handled = !handled;
      f_ignored = !ignored;
      f_impossible = !impossible;
      f_dropped = !dropped;
      f_reached = Hashtbl.length reached_tbl;
      f_violations = List.rev !violations;
    }
  in
  let coord_report =
    audit "coordinator" coordinator_phases
      (classify_coordinator ~mutate)
      Coordinator.phase_to_string reached.coord
  in
  let part_report =
    audit "participant" participant_states
      classify_participant
      Participant.pstate_to_string reached.part
  in
  let required_missing =
    List.filter_map
      (fun (ph, k) ->
        if Hashtbl.mem reached.coord (ph, k) then None
        else
          Some
            (Printf.sprintf "coordinator (%s, %s) never reached"
               (Coordinator.phase_to_string ph)
               (Msg.Kind.to_string k)))
      required_coordinator
    @ List.filter_map
        (fun (st, k) ->
          if Hashtbl.mem reached.part (st, k) then None
          else
            Some
              (Printf.sprintf "participant (%s, %s) never reached"
                 (Participant.pstate_to_string st)
                 (Msg.Kind.to_string k)))
        required_participant
  in
  ([ coord_report; part_report ], required_missing, wal_crash_point_checks ())

(* ------------------------------------------------------------------ *)
(* Certification entry points                                          *)

let certify ?mutate ?(max_seconds = 60.0) () =
  let t0 = Unix.gettimeofday () in
  let compat =
    (* The [Flip_compat_bit] fault: the ST/IX incompatibility driving the
       paper's Fig. 6 deadlock is treated as compatible. *)
    if mutate = Some Flip_compat_bit then Dtx_check.Lattice.st_ix_flipped
    else Mode.compatible
  in
  let ops = parse_templates () in
  let guide_oracle = build_guide_oracle ops in
  let instance_oracle = build_instance_oracle ops in
  let protocols =
    List.map
      (certify_protocol ~compat ~mutate ~guide_oracle ~instance_oracle ops)
      Protocol.all
  in
  (* The optimistic protocol must buy measurable precision with its
     validation machinery: downgrade monotonicity already guarantees >=
     XDGL, and the universe contains pairs only the verdicts can clear,
     so the inequality is required to be strict. *)
  let protocols =
    match
      ( List.find_opt (fun p -> p.pr_name = "Commute") protocols,
        List.find_opt (fun p -> p.pr_name = "XDGL") protocols )
    with
    | Some c, Some x when c.pr_precision <= x.pr_precision ->
      List.map
        (fun p ->
          if p.pr_name = "Commute" then
            {
              p with
              pr_violations =
                p.pr_violations
                @ [
                    Printf.sprintf
                      "Commute: precision %.4f is not strictly above XDGL's \
                       %.4f — the optimistic verdicts cleared no pair the \
                       fallback locks would not"
                      c.pr_precision x.pr_precision;
                  ];
            }
          else p)
        protocols
    | _ -> protocols
  in
  let universe_seconds = Unix.gettimeofday () -. t0 in
  let fsm, required_missing, wal_violations = fsm_audit ~mutate () in
  let budget_violations =
    if universe_seconds > max_seconds then
      [
        Printf.sprintf
          "universe pass took %.1f s, over the %.1f s certification budget"
          universe_seconds max_seconds;
      ]
    else []
  in
  let violations =
    List.length budget_violations
    + List.fold_left (fun n p -> n + List.length p.pr_violations) 0 protocols
    + List.fold_left (fun n f -> n + List.length f.f_violations) 0 fsm
    + List.length required_missing
    + List.length wal_violations
  in
  {
    r_protocols = protocols;
    r_fsm = fsm;
    r_required_missing = required_missing @ budget_violations;
    r_wal_violations = wal_violations;
    r_universe_seconds = universe_seconds;
    r_runtime_seconds = Unix.gettimeofday () -. t0;
    r_violations = violations;
    r_certified = violations = 0;
  }

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

let to_json r =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"protocols\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"name\": %s, \"pairs\": %d, \"conflicting\": %d, \
         \"known_gaps\": %d, \"false_collisions\": %d, \"precision\": %.4f, \
         \"commute_checked\": %d, \"violations\": %s}%s\n"
        (Json.string p.pr_name) p.pr_pairs p.pr_conflicting p.pr_known_gaps
        p.pr_false_collisions p.pr_precision p.pr_commute_checked
        (Json.strings p.pr_violations)
        (if i = List.length r.r_protocols - 1 then "" else ","))
    r.r_protocols;
  add "  ],\n";
  add "  \"fsm\": [\n";
  List.iteri
    (fun i f ->
      add
        "    {\"machine\": %s, \"handled\": %d, \"ignored\": %d, \
         \"impossible\": %d, \"dropped\": %d, \"reached_pairs\": %d, \
         \"violations\": %s}%s\n"
        (Json.string f.f_machine) f.f_handled f.f_ignored f.f_impossible
        f.f_dropped f.f_reached
        (Json.strings f.f_violations)
        (if i = List.length r.r_fsm - 1 then "" else ","))
    r.r_fsm;
  add "  ],\n";
  add "  \"required_missing\": %s,\n" (Json.strings r.r_required_missing);
  add "  \"wal_violations\": %s,\n" (Json.strings r.r_wal_violations);
  add "  \"universe_seconds\": %.3f,\n" r.r_universe_seconds;
  add "  \"runtime_seconds\": %.3f,\n" r.r_runtime_seconds;
  add "  \"violations\": %d,\n" r.r_violations;
  add "  \"certified\": %b\n" r.r_certified;
  add "}";
  Buffer.contents b

let run ?max_seconds () =
  let r = certify ?max_seconds () in
  print_string (to_json r);
  print_newline ();
  if r.r_certified then 0 else 1
