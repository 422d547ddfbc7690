module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Op = Dtx_update.Op
module Protocol = Dtx_protocol.Protocol
module Commute = Dtx_protocol.Commute_rules
module Allocation = Dtx_frag.Allocation
module Cluster = Dtx.Cluster
module Checker = Dtx_check.Checker
module Workload = Dtx_workload.Workload
module Xml_parser = Dtx_xml.Parser
module Rng = Dtx_util.Rng

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type scenario = {
  sc_name : string;
  sc_about : string;
  sc_sites : int;
  sc_docs : (string * string * int list) list;
  sc_txns : (int * (string * string) list) list;
}

let doc_a = "<r><a><x>0</x></a></r>"

let doc_b = "<r><b><y>0</y></b></r>"

let reference =
  { sc_name = "ref";
    sc_about =
      "2 txns x 2 sites: a writer updating both documents races a reader \
       scanning both — conflicting on each site, independent across sites";
    sc_sites = 2;
    sc_docs = [ ("A", doc_a, [ 0 ]); ("B", doc_b, [ 1 ]) ];
    sc_txns =
      [ (0, [ ("A", "CHANGE /r/a/x TO \"1\""); ("B", "CHANGE /r/b/y TO \"1\"") ]);
        (1, [ ("A", "QUERY /r/a"); ("B", "QUERY /r/b") ]) ] }

let disjoint =
  { sc_name = "disjoint";
    sc_about =
      "2 single-op writers on different documents at different sites — \
       fully commuting, the maximal-reduction case";
    sc_sites = 2;
    sc_docs = [ ("A", doc_a, [ 0 ]); ("B", doc_b, [ 1 ]) ];
    sc_txns =
      [ (0, [ ("A", "CHANGE /r/a/x TO \"1\"") ]);
        (1, [ ("B", "CHANGE /r/b/y TO \"2\"") ]) ] }

let deadlock =
  { sc_name = "deadlock";
    sc_about =
      "2 writers acquiring the same two documents in opposite orders — \
       every schedule either serializes or distributed-deadlocks and must \
       recover via the Alg. 4 detector";
    sc_sites = 2;
    sc_docs = [ ("A", doc_a, [ 0 ]); ("B", doc_b, [ 1 ]) ];
    sc_txns =
      [ (0, [ ("A", "CHANGE /r/a/x TO \"1\""); ("B", "CHANGE /r/b/y TO \"1\"") ]);
        (1, [ ("B", "CHANGE /r/b/y TO \"2\""); ("A", "CHANGE /r/a/x TO \"2\"") ]) ] }

let scenarios = [ reference; disjoint; deadlock ]

let find_scenario name =
  List.find_opt (fun s -> s.sc_name = name) scenarios

let parse_op src =
  match Op.parse src with
  | Ok op -> op
  | Error e -> invalid_arg (Printf.sprintf "Explore: bad scenario op %S: %s" src e)

(* Transactions with parsed operations, in submission (= txn id) order. *)
let txn_ops scen =
  List.map
    (fun (coord, ops) ->
      (coord, List.map (fun (doc, src) -> (doc, parse_op src)) ops))
    scen.sc_txns

let scripts scen =
  List.mapi
    (fun i (coord, ops) ->
      { Workload.sc_client = i; sc_coordinator = coord; sc_txns = [ ops ] })
    (txn_ops scen)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  protocol : Protocol.kind;
  two_phase : bool;
  naive : bool;
  tap : (Checker.event -> Checker.event option) option;
  max_schedules : int;
  max_events : int;
  ring : int;
  suffix : int;
}

let default_config =
  { protocol = Protocol.xdgl;
    two_phase = false;
    naive = false;
    tap = None;
    max_schedules = 20_000;
    max_events = 50_000;
    ring = 64;
    suffix = 16 }

type violating_schedule = {
  vs_path : int list;
  vs_violations : Checker.violation list;
}

type outcome = {
  o_scenario : string;
  o_config : config;
  o_explored : int;  (** complete replays (inequivalent schedules) *)
  o_pruned : int;
      (** redundant schedules avoided: sleep-suppressed alternatives plus
          replays cut short because every enabled choice slept *)
  o_max_depth : int;  (** longest decision sequence seen *)
  o_violating : violating_schedule list;  (** first few, with full reports *)
  o_violations : int;  (** total violations across all schedules *)
  o_unsound : string list;  (** {!Commute.self_check} findings (gate input) *)
  o_truncated : bool;
      (** a budget cap was hit: results are a bounded, not exhaustive,
          statement *)
}

(* ------------------------------------------------------------------ *)
(* One replay under a decision prefix                                  *)
(* ------------------------------------------------------------------ *)

exception Pruned

exception Diverged of string

(* One enabled (pending) message delivery at a decision point. [en_key] is
   the schedule-stable identity used by sleep sets: replaying the same
   prefix yields the same pending set, so keys — not event ids — survive
   across replays. *)
type en = {
  en_seq : Sim.event_id;
  en_key : string;
  en_dst : int;
  en_txn : int option;
  en_fanout : bool;  (* one-to-many commit-phase broadcast (Prepare/Commit/Abort) *)
  en_ships : int option list option;
      (* global op indices for Op_ship payloads; None for other kinds *)
}

type dp = {
  dp_enabled : en array;  (* every pending delivery, (time, seq) order *)
  dp_sleep : en list;  (* asleep before the choice *)
  dp_chosen : int;
}

type run_res = {
  rr_trail : dp list;  (* post-prefix decision points, in order *)
  rr_violations : Checker.violation list;
  rr_pruned : bool;
  rr_incomplete : bool;
  rr_depth : int;
}

(* Two pending deliveries are independent — their delivery orders belong to
   the same Mazurkiewicz trace — iff they target different sites (each
   handler mutates only its destination site's lock table / coordinator /
   participant records, so the immediate effects touch disjoint state),
   serve different transactions, and, when both carry operation shipments,
   the static analysis proves every payload pair [Commutes] — the lock
   footprints are how shipment handlers interact {e later} (blocking,
   waking, deadlock), beyond their disjoint immediate effects. Anonymous
   traffic (detector sweeps) and same-site or same-txn pairs are
   conservatively dependent. *)
let independent_en verdicts a b =
  a.en_dst <> b.en_dst
  && (match (a.en_txn, b.en_txn) with
     | Some x, Some y when x <> y -> (
       match (a.en_ships, b.en_ships) with
       | Some xs, Some ys ->
         List.for_all
           (fun i ->
             List.for_all
               (fun j ->
                 match (i, j) with
                 | Some gi, Some gj ->
                   Commute.independent verdicts.(gi).(gj)
                 | _ -> false)
               ys)
           xs
       | _ -> true)
     | Some x, Some y ->
       (* Same transaction: only its one-to-many commit-phase broadcasts
          commute with each other — the participants react locally and the
          racing replies converge on the coordinator as same-destination
          (hence dependent, still explored) deliveries. *)
       x = y && a.en_fanout && b.en_fanout
     | _ -> false)

(* Also the certifier's reachability harness: Dtx_cert audits the FSM
   delivery tables against runs over the exact cluster construction the
   explorer replays, so "reachable" means the same thing in both tools. *)
let setup ?retransmit_ms scen ~protocol ~two_phase =
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let placements =
    List.map
      (fun (name, xml, sites) ->
        { Allocation.doc = Xml_parser.parse ~name xml; sites })
      scen.sc_docs
  in
  let config =
    { (Cluster.default_config ~protocol ()) with
      deadlock_period_ms = 5.0;
      commit = (if two_phase then Cluster.Two_phase else Cluster.One_phase);
      retransmit_ms
    }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:scen.sc_sites config ~placements in
  Cluster.shutdown_when_idle cluster;
  (sim, cluster)

let build scen cfg =
  let sim, cluster =
    setup scen ~protocol:cfg.protocol ~two_phase:cfg.two_phase
  in
  (sim, Cluster.net cluster, cluster)

(* (txn id, op index) -> index into the flattened scenario op array the
   commutativity matrix is computed over. Txn ids are assigned 1.. in
   script order by the coordinator; op indices are 0-based per txn. *)
let op_lookup scen =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun ti (_, ops) ->
      List.iteri
        (fun oi _ ->
          Hashtbl.replace tbl (ti + 1, oi) (Hashtbl.length tbl))
        ops)
    (txn_ops scen);
  fun key -> Hashtbl.find_opt tbl key

let replay scen cfg ~lookup ~verdicts ~prefix ~sleep0 =
  let sim, net, cluster = build scen cfg in
  let checker = Checker.create ~ring:cfg.ring ~suffix:cfg.suffix () in
  Checker.attach ?mutate:cfg.tap checker cluster;
  Workload.submit_script cluster (scripts scen);
  let prefix = Array.of_list prefix in
  let plen = Array.length prefix in
  let depth = ref 0 in
  let sleep = ref (if plen = 0 then sleep0 else []) in
  let trail = ref [] in
  let indep a b = (not cfg.naive) && independent_en verdicts a b in
  let mk_en (c : Sim.candidate) (d : Net.delivery) =
    let ships =
      match d.Net.d_msg with
      | Msg.Op_ship { txn; ops; _ } ->
        Some (List.map (fun s -> lookup (txn, s.Msg.s_index)) ops)
      | _ -> None
    in
    let fanout =
      match d.Net.d_msg with
      | Msg.Prepare _ | Msg.Commit _ | Msg.Abort _ -> true
      | _ -> false
    in
    { en_seq = c.Sim.c_seq;
      en_key =
        Format.asprintf "%d>%d:%a" d.Net.d_src d.Net.d_dst Msg.pp d.Net.d_msg;
      en_dst = d.Net.d_dst;
      en_txn = Msg.txn d.Net.d_msg;
      en_fanout = fanout;
      en_ships = ships }
  in
  let chooser cands =
    let deliveries = Net.pending_deliveries net in
    match cands with
    | [] -> assert false
    | first :: _ when not (List.mem_assoc first.Sim.c_seq deliveries) ->
      (* Internal event (timer, client callback) at the frontier: fire it
         deterministically — only message-delivery order branches. *)
      first.Sim.c_seq
    | _ ->
      let enabled =
        List.filter_map
          (fun (c : Sim.candidate) ->
            match List.assoc_opt c.Sim.c_seq deliveries with
            | None -> None
            | Some d -> Some (mk_en c d))
          cands
        |> Array.of_list
      in
      (* Identical payloads pending at once (retransmitted copies) would
         alias in the sleep sets; suffix duplicates by occurrence. *)
      let seen = Hashtbl.create 8 in
      Array.iteri
        (fun i e ->
          match Hashtbl.find_opt seen e.en_key with
          | None -> Hashtbl.replace seen e.en_key 1
          | Some n ->
            Hashtbl.replace seen e.en_key (n + 1);
            enabled.(i) <-
              { e with en_key = Printf.sprintf "%s#%d" e.en_key n })
        enabled;
      let d = !depth in
      incr depth;
      let chosen =
        if d < plen then begin
          let i = prefix.(d) in
          if i < 0 || i >= Array.length enabled then
            raise
              (Diverged
                 (Printf.sprintf
                    "decision %d: prefix index %d out of %d enabled" d i
                    (Array.length enabled)));
          i
        end
        else begin
          let sleeping k = List.exists (fun s -> s.en_key = k) !sleep in
          let rec first_awake i =
            if i >= Array.length enabled then raise Pruned
            else if sleeping enabled.(i).en_key then first_awake (i + 1)
            else i
          in
          first_awake 0
        end
      in
      (* The sleep set the parent computed applies from the point where the
         new branch decision (the last prefix entry) was taken. *)
      if d = plen - 1 then sleep := sleep0;
      if d >= plen then begin
        trail := { dp_enabled = enabled; dp_sleep = !sleep; dp_chosen = chosen }
                 :: !trail;
        sleep := List.filter (fun s -> indep s enabled.(chosen)) !sleep
      end;
      enabled.(chosen).en_seq
  in
  Sim.set_chooser sim (Some chooser);
  let pruned =
    try
      Sim.run ~max_events:cfg.max_events sim;
      false
    with Pruned -> true
  in
  let incomplete =
    (not pruned) && (Sim.pending sim > 0 || Cluster.active_txns cluster > 0)
  in
  let violations = if pruned then [] else Checker.finish checker in
  { rr_trail = List.rev !trail;
    rr_violations = violations;
    rr_pruned = pruned;
    rr_incomplete = incomplete;
    rr_depth = !depth }

(* ------------------------------------------------------------------ *)
(* The explorer: DFS over delivery orders with sleep sets              *)
(* ------------------------------------------------------------------ *)

let explore ?(config = default_config) scen =
  let cfg = config in
  let flat_ops = Array.of_list (List.concat_map snd (txn_ops scen)) in
  let commute =
    Commute.create ~protocol:cfg.protocol
      ~docs:
        (List.map (fun (name, xml, _) -> Xml_parser.parse ~name xml)
           scen.sc_docs)
  in
  let verdicts = Commute.matrix commute flat_ops in
  let unsound =
    match Commute.self_check commute flat_ops with
    | Ok () -> []
    | Error msgs -> msgs
  in
  let lookup = op_lookup scen in
  let indep a b = (not cfg.naive) && independent_en verdicts a b in
  let explored = ref 0 in
  let pruned = ref 0 in
  let truncated = ref false in
  let max_depth = ref 0 in
  let total_violations = ref 0 in
  let violating = ref [] in
  let stack = ref [ ([], []) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (prefix, sleep0) :: rest ->
      stack := rest;
      if !explored + !pruned >= cfg.max_schedules then begin
        truncated := true;
        stack := []
      end
      else begin
        let rr = replay scen cfg ~lookup ~verdicts ~prefix ~sleep0 in
        if rr.rr_pruned then incr pruned
        else begin
          incr explored;
          if rr.rr_incomplete then truncated := true;
          if rr.rr_depth > !max_depth then max_depth := rr.rr_depth;
          if rr.rr_violations <> [] then begin
            total_violations := !total_violations + List.length rr.rr_violations;
            if List.length !violating < 5 then begin
              let path =
                prefix @ List.map (fun dp -> dp.dp_chosen) rr.rr_trail
              in
              violating :=
                !violating
                @ [ { vs_path = path; vs_violations = rr.rr_violations } ]
            end
          end;
          (* Schedule the unexplored alternatives of every post-prefix
             decision point, threading sleep sets: an alternative inherits
             the point's sleepers plus its already-scheduled siblings,
             minus everything dependent on the alternative itself. *)
          let rec walk path = function
            | [] -> ()
            | dp :: rest_dps ->
              let accum = ref (dp.dp_sleep @ [ dp.dp_enabled.(dp.dp_chosen) ]) in
              Array.iteri
                (fun i en ->
                  if i <> dp.dp_chosen then begin
                    if List.exists (fun s -> s.en_key = en.en_key) dp.dp_sleep
                    then incr pruned
                    else begin
                      let child_sleep =
                        List.filter (fun s -> indep s en) !accum
                      in
                      stack := (path @ [ i ], child_sleep) :: !stack;
                      accum := !accum @ [ en ]
                    end
                  end)
                dp.dp_enabled;
              walk (path @ [ dp.dp_chosen ]) rest_dps
          in
          walk prefix rr.rr_trail
        end
      end
  done;
  { o_scenario = scen.sc_name;
    o_config = cfg;
    o_explored = !explored;
    o_pruned = !pruned;
    o_max_depth = !max_depth;
    o_violating = !violating;
    o_violations = !total_violations;
    o_unsound = unsound;
    o_truncated = !truncated }

(* ------------------------------------------------------------------ *)
(* Random baseline: seeded bounded-jitter schedules (chaos-style)      *)
(* ------------------------------------------------------------------ *)

let random_run ?(jitter_ms = 2.0) scen cfg ~seed =
  let sim, net, cluster = build scen cfg in
  let checker = Checker.create ~ring:cfg.ring ~suffix:cfg.suffix () in
  Checker.attach ?mutate:cfg.tap checker cluster;
  let rng = Rng.create seed in
  Net.set_fault net
    (Some
       { Net.f_offsets =
           (fun ~time:_ ~src:_ ~dst:_ _channel _msg ->
             [ Rng.float rng jitter_ms ]);
         f_deliverable = (fun ~time:_ ~src:_ ~dst:_ -> true) });
  Workload.submit_script cluster (scripts scen);
  Sim.run ~max_events:cfg.max_events sim;
  Checker.finish checker

let random_runs ?jitter_ms scen cfg ~seeds =
  List.map (fun seed -> (seed, random_run ?jitter_ms scen cfg ~seed)) seeds
