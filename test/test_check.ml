(* The checker, checked.

   Directed cases feed scripted event sequences through [Checker.emit] and
   assert that each seeded fault — a flipped compatibility cell, a skipped
   release, a Commit ahead of its prepare round — is caught, and that the
   faithful version of the same schedule is not. QCheck generalizes the
   skipped-release case; the workload properties run real simulations under
   the analyzer across many seeds. *)

module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Msg = Dtx_net.Msg
module Net = Dtx_net.Net
module Coordinator = Dtx.Coordinator
module Participant = Dtx.Participant
module Cluster = Dtx.Cluster
module History = Dtx.History
module Checker = Dtx_check.Checker
module Lattice = Dtx_check.Lattice
module Workload = Dtx_workload.Workload

let r name node = Table.resource name node

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let invariants vs =
  List.sort_uniq compare (List.map (fun v -> v.Checker.v_invariant) vs)

let check_inv what expected vs =
  Alcotest.(check (list string)) what expected (invariants vs)

(* --- mode lattice ---------------------------------------------------- *)

let test_lattice_ok () =
  match Lattice.check () with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "live matrix rejected: %s" (List.hd msgs)

let test_lattice_flip_caught () =
  match
    Lattice.check_with ~compat:Lattice.st_ix_flipped
      ~conflict_mask:Mode.conflict_mask ~intention_for:Mode.intention_for ()
  with
  | Ok () -> Alcotest.fail "flipped compat cell not caught"
  | Error msgs ->
    Alcotest.(check bool)
      "names the disagreeing pair" true
      (List.exists (fun m -> contains m "ST" && contains m "IX") msgs)

(* --- scripted lock schedules ----------------------------------------- *)

(* One transaction's full life at one site, as the checker sees it. *)
let faithful_schedule c ~txn =
  let res = r "doc" txn in
  Checker.emit c ~time:1.0
    (Checker.Lock { site = 0; ev = Table.Acquired { txn; resource = res; mode = Mode.IS } });
  Checker.emit c ~time:2.0
    (Checker.Lock
       { site = 0;
         ev =
           Table.Released
             { txn; resource = res; mode = Mode.IS; count = 1;
               kind = Table.End_of_txn }
       });
  Checker.emit c ~time:3.0
    (Checker.Part { site = 0; ev = Participant.Finished { txn; committed = true } })

let test_faithful_schedule_clean () =
  let c = Checker.create () in
  faithful_schedule c ~txn:1;
  faithful_schedule c ~txn:2;
  check_inv "no violations" [] (Checker.finish c)

let test_skipped_release_caught () =
  let c = Checker.create () in
  faithful_schedule c ~txn:1;
  (* txn 2 finishes without its release event. *)
  let res = r "doc" 2 in
  Checker.emit c ~time:4.0
    (Checker.Lock
       { site = 0; ev = Table.Acquired { txn = 2; resource = res; mode = Mode.IS } });
  Checker.emit c ~time:5.0
    (Checker.Part { site = 0; ev = Participant.Finished { txn = 2; committed = true } });
  let vs = Checker.finish c in
  check_inv "lock-balance flagged" [ "lock-balance" ] vs;
  Alcotest.(check (option int))
    "names the transaction" (Some 2)
    (List.hd vs).Checker.v_txn

let test_acquire_after_release_caught () =
  let c = Checker.create () in
  let res = r "doc" 9 in
  Checker.emit c ~time:1.0
    (Checker.Lock
       { site = 0; ev = Table.Acquired { txn = 1; resource = res; mode = Mode.IS } });
  Checker.emit c ~time:2.0
    (Checker.Lock
       { site = 0;
         ev =
           Table.Released
             { txn = 1; resource = res; mode = Mode.IS; count = 1;
               kind = Table.End_of_txn }
       });
  Checker.emit c ~time:3.0
    (Checker.Lock
       { site = 0; ev = Table.Acquired { txn = 1; resource = res; mode = Mode.IS } });
  Alcotest.(check bool)
    "s2pl-discipline flagged" true
    (List.mem "s2pl-discipline" (invariants (Checker.violations c)))

let test_incompatible_grant_caught () =
  let c = Checker.create () in
  let res = r "doc" 3 in
  Checker.emit c ~time:1.0
    (Checker.Lock
       { site = 0; ev = Table.Acquired { txn = 1; resource = res; mode = Mode.ST } });
  Checker.emit c ~time:2.0
    (Checker.Lock
       { site = 0; ev = Table.Acquired { txn = 2; resource = res; mode = Mode.IX } });
  check_inv "lock-compat flagged" [ "lock-compat" ] (Checker.violations c)

(* --- 2PC ordering ----------------------------------------------------- *)

let prepare_round c ~txn ~site =
  Checker.emit c ~time:1.0
    (Checker.Net
       { src = 0; dst = site; dir = Net.Send; msg = Msg.Prepare { txn } });
  Checker.emit c ~time:2.0
    (Checker.Part { site; ev = Participant.Prepared { txn } });
  Checker.emit c ~time:3.0
    (Checker.Net
       { src = site; dst = 0; dir = Net.Deliver; msg = Msg.Vote { txn; ok = true } })

let test_two_phase_faithful_clean () =
  let c = Checker.create () in
  prepare_round c ~txn:1 ~site:1;
  prepare_round c ~txn:1 ~site:2;
  Checker.emit c ~time:4.0
    (Checker.Net { src = 0; dst = 1; dir = Net.Send; msg = Msg.Commit { txn = 1 } });
  check_inv "no violations" [] (Checker.finish c)

let test_commit_before_prepared_caught () =
  let c = Checker.create () in
  prepare_round c ~txn:1 ~site:1;
  (* Site 2 was asked to prepare but its vote never arrived — the Commit is
     effectively reordered ahead of Prepared. *)
  Checker.emit c ~time:4.0
    (Checker.Net
       { src = 0; dst = 2; dir = Net.Send; msg = Msg.Prepare { txn = 1 } });
  Checker.emit c ~time:5.0
    (Checker.Net { src = 0; dst = 1; dir = Net.Send; msg = Msg.Commit { txn = 1 } });
  let vs = Checker.violations c in
  check_inv "2pc-order flagged" [ "2pc-order" ] vs;
  Alcotest.(check (option int)) "names the site" (Some 2) (List.hd vs).Checker.v_site

let test_vote_without_prepared_caught () =
  let c = Checker.create () in
  Checker.emit c ~time:1.0
    (Checker.Net
       { src = 0; dst = 1; dir = Net.Send; msg = Msg.Prepare { txn = 1 } });
  (* yes vote, but no Prepared WAL record at site 1 *)
  Checker.emit c ~time:2.0
    (Checker.Net
       { src = 1; dst = 0; dir = Net.Deliver; msg = Msg.Vote { txn = 1; ok = true } });
  check_inv "2pc-prepare flagged" [ "2pc-prepare" ] (Checker.violations c)

(* --- coordinator FSM -------------------------------------------------- *)

let phase c ~txn from_ to_ =
  Checker.emit c ~time:1.0 (Checker.Phase { txn; from_; to_ })

let test_fsm_legal_path_clean () =
  let c = Checker.create () in
  phase c ~txn:1 None Coordinator.Executing;
  phase c ~txn:1 (Some Coordinator.Executing) Coordinator.Awaiting_replies;
  phase c ~txn:1 (Some Coordinator.Awaiting_replies) Coordinator.Waiting;
  phase c ~txn:1 (Some Coordinator.Waiting) Coordinator.Executing;
  phase c ~txn:1 (Some Coordinator.Executing) Coordinator.Preparing;
  phase c ~txn:1 (Some Coordinator.Preparing) Coordinator.Ending;
  phase c ~txn:1 (Some Coordinator.Ending) Coordinator.Done;
  check_inv "no violations" [] (Checker.violations c)

let test_fsm_illegal_transition_caught () =
  let c = Checker.create () in
  phase c ~txn:1 None Coordinator.Executing;
  phase c ~txn:1 (Some Coordinator.Executing) Coordinator.Done;
  check_inv "fsm-conformance flagged" [ "fsm-conformance" ]
    (Checker.violations c)

let test_op_ship_while_ending_caught () =
  let c = Checker.create () in
  phase c ~txn:1 None Coordinator.Executing;
  phase c ~txn:1 (Some Coordinator.Executing) Coordinator.Ending;
  Checker.emit c ~time:2.0
    (Checker.Net
       { src = 0; dst = 1; dir = Net.Send;
         msg = Msg.Op_ship { txn = 1; attempt = 1; seq = 1; ops = [] }
       });
  check_inv "fsm-conformance flagged" [ "fsm-conformance" ]
    (Checker.violations c)

(* --- deadlock victims -------------------------------------------------- *)

let victim_round c ~edges ~victim =
  Checker.emit c ~time:1.0
    (Checker.Net
       { src = 0; dst = 1; dir = Net.Send; msg = Msg.Wfg_request });
  Checker.emit c ~time:2.0
    (Checker.Net { src = 1; dst = 0; dir = Net.Deliver; msg = Msg.Wfg_reply { edges } });
  Checker.emit c ~time:3.0
    (Checker.Net
       { src = 0; dst = 1; dir = Net.Send; msg = Msg.Victim { txn = victim } })

let test_victim_newest_clean () =
  let c = Checker.create () in
  victim_round c ~edges:[ (1, 2); (2, 1) ] ~victim:2;
  check_inv "no violations" [] (Checker.violations c)

let test_victim_not_newest_caught () =
  let c = Checker.create () in
  victim_round c ~edges:[ (1, 2); (2, 1) ] ~victim:1;
  check_inv "deadlock-victim flagged" [ "deadlock-victim" ]
    (Checker.violations c)

let test_victim_without_cycle_caught () =
  let c = Checker.create () in
  victim_round c ~edges:[ (1, 2) ] ~victim:2;
  check_inv "deadlock-victim flagged" [ "deadlock-victim" ]
    (Checker.violations c)

(* --- QCheck: random schedules ------------------------------------------ *)

(* A schedule is a list of transactions, each holding a few resources in
   mutually compatible modes, released in full at the end. Faithfully
   replayed it must be clean; with one end-of-transaction release dropped it
   must be flagged. *)
let gen_schedule =
  QCheck.Gen.(
    let txn_count = 1 -- 6 in
    let res_count = 1 -- 5 in
    txn_count >>= fun n ->
    let gen_txn id =
      res_count >>= fun k ->
      list_repeat k (1 -- 40) >>= fun nodes ->
      return (id, List.sort_uniq compare nodes)
    in
    let rec build i acc =
      if i > n then return (List.rev acc)
      else gen_txn i >>= fun t -> build (i + 1) (t :: acc)
    in
    build 1 [])

let replay ~drop schedule =
  let c = Checker.create () in
  let time = ref 0.0 in
  let release_index = ref 0 in
  let tick () = time := !time +. 1.0; !time in
  List.iter
    (fun (txn, nodes) ->
      List.iter
        (fun node ->
          Checker.emit c ~time:(tick ())
            (Checker.Lock
               { site = 0;
                 ev = Table.Acquired { txn; resource = r "doc" node; mode = Mode.IS }
               }))
        nodes;
      List.iter
        (fun node ->
          let i = !release_index in
          incr release_index;
          if Some i <> drop then
            Checker.emit c ~time:(tick ())
              (Checker.Lock
                 { site = 0;
                   ev =
                     Table.Released
                       { txn; resource = r "doc" node; mode = Mode.IS;
                         count = 1; kind = Table.End_of_txn }
                   }))
        nodes;
      Checker.emit c ~time:(tick ())
        (Checker.Part { site = 0; ev = Participant.Finished { txn; committed = true } }))
    schedule;
  Checker.finish c

let prop_faithful_replay_clean =
  QCheck.Test.make ~name:"faithful random schedules pass" ~count:100
    (QCheck.make gen_schedule)
    (fun schedule -> replay ~drop:None schedule = [])

let prop_dropped_release_flagged =
  QCheck.Test.make ~name:"any dropped release is flagged" ~count:100
    QCheck.(pair (QCheck.make gen_schedule) small_nat)
    (fun (schedule, pick) ->
      let total =
        List.fold_left (fun acc (_, nodes) -> acc + List.length nodes) 0 schedule
      in
      QCheck.assume (total > 0);
      let vs = replay ~drop:(Some (pick mod total)) schedule in
      List.exists (fun v -> v.Checker.v_invariant = "lock-balance") vs)

(* --- real workloads across seeds ---------------------------------------- *)

let tiny_params ~seed ~protocol ~policy =
  { Workload.default_params with
    seed; protocol; n_sites = 3; n_clients = 4; txns_per_client = 2;
    ops_per_txn = 3; update_txn_pct = 50; base_size_mb = 1.0;
    deadlock_policy = policy }

(* ≥ 50 seeds: every schedule the protocols accept has an acyclic
   precedence graph, and the full checker stays quiet while they run. *)
let test_many_seeds_serializable () =
  List.iter
    (fun protocol ->
      for seed = 1 to 25 do
        let c = Checker.create () in
        ignore
          (Workload.run
             ~instrument:(fun cluster -> Checker.attach c cluster)
             (tiny_params ~seed ~protocol ~policy:Dtx.Site.Detection));
        match Checker.finish c with
        | [] -> ()
        | v :: _ ->
          Alcotest.failf "%s seed %d: %a"
            (Dtx_protocol.Protocol.kind_to_string protocol)
            seed Checker.pp_violation v
      done)
    [ Dtx_protocol.Protocol.xdgl; Dtx_protocol.Protocol.node2pl;
      Dtx_protocol.Protocol.commute ]

(* The optimistic protocol's core soundness claim, generalized: whatever
   workload shape QCheck draws, every history Commute accepts — lock-free
   commuting operations, intention-downgraded writers, validation aborts
   and all — passes the full checker, serializability included (the
   checker's history invariant records the complete derived footprints,
   not the reduced lock sets). *)
let prop_commute_serializable =
  QCheck.Test.make ~name:"commute-accepted histories serializability-clean"
    ~count:20
    QCheck.(triple (int_range 1 500) (int_range 0 100) (int_range 2 6))
    (fun (seed, upd, clients) ->
      let c = Checker.create () in
      let p =
        { (tiny_params ~seed ~protocol:Dtx_protocol.Protocol.commute
             ~policy:Dtx.Site.Detection)
          with n_clients = clients; update_txn_pct = upd }
      in
      ignore
        (Workload.run ~instrument:(fun cluster -> Checker.attach c cluster) p);
      match Checker.finish c with
      | [] -> true
      | v :: _ ->
        QCheck.Test.fail_reportf "seed %d upd %d clients %d: %a" seed upd
          clients Checker.pp_violation v)

(* Forced aborts (wound-wait kills transactions aggressively) must leave no
   trace in the precedence graph: every conflict edge joins two committed
   transactions. *)
let test_aborted_txns_contribute_no_edges () =
  for seed = 1 to 10 do
    let hist = ref None in
    let res =
      Workload.run
        ~instrument:(fun cluster -> hist := Some (Cluster.enable_history cluster))
        (tiny_params ~seed ~protocol:Dtx_protocol.Protocol.xdgl
           ~policy:Dtx.Site.Wound_wait)
    in
    let h = Option.get !hist in
    let committed = List.map fst (History.committed h) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: some aborts occurred or none needed" seed)
      true
      (res.Workload.committed >= 0);
    List.iter
      (fun (a, b) ->
        if not (List.mem a committed && List.mem b committed) then
          Alcotest.failf "seed %d: edge t%d -> t%d touches an uncommitted txn"
            seed a b)
      (History.conflict_edges h)
  done

let () =
  Alcotest.run "check"
    [ ( "lattice",
        [ Alcotest.test_case "live matrix ok" `Quick test_lattice_ok;
          Alcotest.test_case "flipped cell caught" `Quick
            test_lattice_flip_caught ] );
      ( "locks",
        [ Alcotest.test_case "faithful schedule clean" `Quick
            test_faithful_schedule_clean;
          Alcotest.test_case "skipped release caught" `Quick
            test_skipped_release_caught;
          Alcotest.test_case "acquire after release caught" `Quick
            test_acquire_after_release_caught;
          Alcotest.test_case "incompatible grant caught" `Quick
            test_incompatible_grant_caught;
          QCheck_alcotest.to_alcotest prop_faithful_replay_clean;
          QCheck_alcotest.to_alcotest prop_dropped_release_flagged ] );
      ( "two-phase",
        [ Alcotest.test_case "faithful round clean" `Quick
            test_two_phase_faithful_clean;
          Alcotest.test_case "commit before prepared caught" `Quick
            test_commit_before_prepared_caught;
          Alcotest.test_case "vote without prepared caught" `Quick
            test_vote_without_prepared_caught ] );
      ( "fsm",
        [ Alcotest.test_case "legal path clean" `Quick test_fsm_legal_path_clean;
          Alcotest.test_case "illegal transition caught" `Quick
            test_fsm_illegal_transition_caught;
          Alcotest.test_case "op-ship while ending caught" `Quick
            test_op_ship_while_ending_caught ] );
      ( "deadlock",
        [ Alcotest.test_case "newest victim clean" `Quick test_victim_newest_clean;
          Alcotest.test_case "non-newest victim caught" `Quick
            test_victim_not_newest_caught;
          Alcotest.test_case "victim without cycle caught" `Quick
            test_victim_without_cycle_caught ] );
      ( "workloads",
        [ Alcotest.test_case "50 seeded runs serializable" `Slow
            test_many_seeds_serializable;
          Alcotest.test_case "aborts contribute no edges" `Quick
            test_aborted_txns_contribute_no_edges;
          QCheck_alcotest.to_alcotest prop_commute_serializable ] ) ]
