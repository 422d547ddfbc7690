(* Tests for Dtx_explore: the static commutativity analysis (QCheck-validated
   against actual operation execution and against its former list-based
   form), the optimistic admission that runs it against the active
   transactions, the sleep-set schedule explorer on the pinned scenarios,
   its reduction factor against naive enumeration, and the seeded-bug
   coverage that random schedules cannot provide (the taps come from the
   fault registry, which also runs them in test_faults). *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Cluster = Dtx.Cluster
module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Xml_parser = Dtx_xml.Parser
module Printer = Dtx_xml.Printer
module Commute = Dtx_protocol.Commute_rules
module Explore = Dtx_explore.Explore
module Faults = Dtx_faults.Faults

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the commutativity analyzer ------------------------------------------ *)

let pool_doc = "<r><a><x>hello</x><y>1</y></a><b><z>2</z></b></r>"

let op src =
  match Op.parse src with
  | Ok o -> o
  | Error e -> Alcotest.failf "bad op %S: %s" src e

(* A pool rich enough to exercise every rule: reads, writes, structure
   changes, and the INSERT AFTER/BEFORE positional reads the virtual-ST
   closure exists for. *)
let pool =
  [| "QUERY /r/a";
     "QUERY /r/b/z";
     "CHANGE /r/a/x TO \"v1\"";
     "CHANGE /r/a/y TO \"v2\"";
     "CHANGE /r/b/z TO \"v3\"";
     "REMOVE /r/a/y";
     "REMOVE /r/b";
     "RENAME /r/a/x TO w";
     "INSERT INTO /r/b <n>9</n>";
     "INSERT AFTER /r/a/x <m>8</m>";
     "INSERT BEFORE /r/b/z <k>7</k>";
     "INSERT AFTER /r/a/y <m2>6</m2>" |]

let analyzer () =
  Commute.create ~protocol:Protocol.xdgl
    ~docs:[ Xml_parser.parse ~name:"D" pool_doc ]

let decide t i j = Commute.decide t ("D", op pool.(i)) ("D", op pool.(j))

let test_decide_expectations () =
  let t = analyzer () in
  let cross =
    Commute.decide t ("D", op "CHANGE /r/a/x TO \"v\"") ("E", op "REMOVE /r/b")
  in
  checkb "different documents commute" true (cross = Commute.Commutes);
  checkb "two queries commute" true (decide t 0 1 = Commute.Commutes);
  checkb "query vs change of same subtree conflicts" true
    (decide t 0 2 = Commute.Conflicts);
  checkb "disjoint-subtree writes commute" true (decide t 2 4 = Commute.Commutes);
  (* INSERT AFTER /r/a/x reads x's position; the rules lock only the connect
     node, the analyzer's virtual ST must still see RENAME's XT on x. *)
  checkb "insert-after vs rename of its target conflicts" true
    (decide t 9 7 = Commute.Conflicts);
  (* INSERT INTO's own virtual position read on the connect node collides
     with the sibling insert's SB lock there: conservatively Conflicts. *)
  checkb "insert-into vs insert-before same parent conflicts" true
    (decide t 8 10 = Commute.Conflicts);
  (* Two INSERT AFTERs with different targets under one parent: mutually
     compatible SA locks, no footprint conflict, but sibling order depends
     on who goes first. *)
  checkb "order-sensitive insert pair is unknown" true
    (decide t 9 11 = Commute.Unknown);
  checkb "unknown is not independence" false (Commute.independent Commute.Unknown)

let test_self_check () =
  let t = analyzer () in
  let ops = Array.map (fun src -> ("D", op src)) pool in
  (match Commute.self_check t ops with
   | Ok () -> ()
   | Error msgs -> Alcotest.failf "self-check: %s" (String.concat "; " msgs));
  let m = Commute.matrix t ops in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> checkb "matrix symmetric" true (v = m.(j).(i)))
        row)
    m

(* Soundness against the executable semantics: whenever the static verdict
   is Commutes, applying the two operations in either order on fresh copies
   of the document must yield byte-identical results. *)
let apply_both i j =
  let doc = Xml_parser.parse ~name:"D" pool_doc in
  (match Exec.apply doc (op pool.(i)) with Ok _ | Error _ -> ());
  (match Exec.apply doc (op pool.(j)) with Ok _ | Error _ -> ());
  Printer.to_string doc

let prop_commutes_is_sound =
  QCheck.Test.make ~name:"Commutes implies order-insensitive execution"
    ~count:300
    QCheck.(pair (int_bound (Array.length pool - 1))
              (int_bound (Array.length pool - 1)))
    (fun (i, j) ->
      let t = analyzer () in
      match decide t i j with
      | Commute.Commutes -> String.equal (apply_both i j) (apply_both j i)
      | Commute.Conflicts | Commute.Unknown -> true)

(* --- compiled verdicts against the list-based oracle ----------------------- *)

module Table = Dtx_locks.Table
module Mode = Dtx_locks.Mode
module Xdgl_rules = Dtx_protocol.Xdgl_rules

(* The pool plus transposes and more insertions, so insert/transpose pairs
   meet on a shared connect node (/r/a and /r/b) in several ways. *)
let order_pool =
  [| "INSERT INTO /r/b <n>9</n>";
     "INSERT AFTER /r/a/x <m>8</m>";
     "INSERT BEFORE /r/b/z <k>7</k>";
     "INSERT AFTER /r/a/y <m2>6</m2>";
     "INSERT INTO /r/a <q>5</q>";
     "INSERT BEFORE /r/a/x <p>4</p>";
     "TRANSPOSE /r/b/z INTO /r/a";
     "TRANSPOSE /r/a/x INTO /r/b" |]

let wide_pool = Array.append pool order_pool

let order_sensitive = function
  | Op.Insert _ | Op.Transpose _ -> true
  | Op.Query _ | Op.Remove _ | Op.Rename _ | Op.Change _ -> false

let shared_connect fp1 fp2 =
  let ins = function Mode.SI | Mode.SA | Mode.SB -> true | _ -> false in
  List.exists
    (fun (r1, m1) ->
      ins m1 && List.exists (fun (r2, m2) -> ins m2 && r1 = r2) fp2)
    fp1

(* The verdict as [Commute_rules] decided it before footprints were
   compiled: derive over a private protocol instance (warm-up pass first,
   as [prepare] does), append the virtual reads, and scan the lists. *)
let oracle_verdict kind (d1, o1) (d2, o2) =
  let proto = Protocol.create kind in
  List.iter
    (fun name -> Protocol.add_doc proto (Xml_parser.parse ~name pool_doc))
    [ "D"; "E" ];
  let footprint (doc, op) =
    match Protocol.lock_requests proto ~doc op with
    | Ok (reqs, _) -> Some reqs
    | Error _ -> None
  in
  let virtual_reads (doc, op) =
    match Protocol.dataguide proto doc with
    | None -> []
    | Some dg ->
      List.concat_map
        (Xdgl_rules.reads (Xdgl_rules.guide_view dg))
        (Op.paths op)
  in
  ignore (footprint (d1, o1));
  ignore (footprint (d2, o2));
  let fp1 = footprint (d1, o1) in
  let vr1 = virtual_reads (d1, o1) in
  let fp2 = footprint (d2, o2) in
  let vr2 = virtual_reads (d2, o2) in
  if d1 <> d2 then Commute.Commutes
  else if (not (Op.is_update o1)) && not (Op.is_update o2) then
    Commute.Commutes
  else
    match (fp1, fp2) with
    | None, _ | _, None -> Commute.Unknown
    | Some fp1, Some fp2 ->
      if
        Table.lists_conflict ~compat:Mode.compatible (fp1 @ vr1) (fp2 @ vr2)
      then Commute.Conflicts
      else if order_sensitive o1 && order_sensitive o2
              && shared_connect fp1 fp2
      then Commute.Unknown
      else if
        Protocol.dataguide proto d1 = None && Op.is_update o1
        && Op.is_update o2
      then Commute.Unknown
      else Commute.Commutes

let verdict_name = function
  | Commute.Commutes -> "commutes"
  | Commute.Conflicts -> "conflicts"
  | Commute.Unknown -> "unknown"

(* One third of the pairs are drawn from the insert/transpose pool alone,
   so the shared-connect rule is exercised as often as the mode test.
   Document "Z" is never loaded, so its operations have no footprint. *)
let oracle_pair =
  let open QCheck.Gen in
  let kinds = Array.of_list Protocol.all in
  let side ops =
    pair
      (frequency [ (4, return "D"); (2, return "E"); (1, return "Z") ])
      (oneofa ops)
  in
  let pair_of ops = pair (side ops) (side ops) in
  triple (oneofa kinds)
    (frequency [ (2, pair_of wide_pool); (1, pair_of order_pool) ])
    bool

let prop_compiled_matches_oracle =
  QCheck.Test.make ~name:"compiled verdict = list-based oracle" ~count:600
    (QCheck.make
       ~print:(fun (kind, ((d1, s1), (d2, s2)), _) ->
         Printf.sprintf "%s: (%s, %s) x (%s, %s)"
           (Protocol.kind_to_string kind) d1 s1 d2 s2)
       oracle_pair)
    (fun (kind, ((d1, s1), (d2, s2)), flip) ->
      let o1 = (d1, op s1) and o2 = (d2, op s2) in
      let expected = oracle_verdict kind o1 o2 in
      let t =
        Commute.create ~protocol:kind
          ~docs:
            (List.map
               (fun name -> Xml_parser.parse ~name pool_doc)
               [ "D"; "E" ])
      in
      let ps = Commute.prepare t [| o1; o2 |] in
      let got =
        if flip then Commute.decide_prepared ps.(1) ps.(0)
        else Commute.decide_prepared ps.(0) ps.(1)
      in
      if got <> expected then
        QCheck.Test.fail_reportf "compiled %s, oracle %s" (verdict_name got)
          (verdict_name expected);
      true)

(* Every branch of the oracle is reached from the pools above, so the
   generator is not confined to the easy verdicts. Under XDGL every
   footprint on "D" is derivable, so [Unknown] there is the shared-connect
   rule. *)
let test_oracle_branches_reached () =
  let count kind ops v =
    Array.fold_left
      (fun n s1 ->
        Array.fold_left
          (fun n s2 ->
            if oracle_verdict kind ("D", op s1) ("D", op s2) = v then n + 1
            else n)
          n ops)
      0 ops
  in
  checkb "insert/transpose pairs meet on a connect node" true
    (count Protocol.xdgl order_pool Commute.Unknown > 0);
  checkb "some insert/transpose pairs commute" true
    (count Protocol.xdgl order_pool Commute.Commutes > 0);
  checkb "some pairs collide on a mode" true
    (count Protocol.xdgl wide_pool Commute.Conflicts > 0);
  checkb "no guide: non-blocking updates are unknown" true
    (oracle_verdict Protocol.node2pl
       ("D", op "CHANGE /r/a/x TO \"v1\"")
       ("D", op "CHANGE /r/b/z TO \"v3\"")
    = Commute.Unknown);
  checkb "unknown document" true
    (oracle_verdict Protocol.xdgl ("Z", op "REMOVE /r/b") ("Z", op "QUERY /r")
    = Commute.Unknown)

(* --- the pruned admission against an all-pairs reference ------------------ *)

module Optimist = Dtx.Optimist

(* [Optimist] before it skipped active transactions: every operation of the
   newcomer against every operation of every active transaction. *)
module All_pairs = struct
  type entry = {
    ps : Commute.prepared array;
    flags : bool array;
    guides : (string * int) list;
    mutable executed_all : bool;
    mutable invalidated : string option;
  }

  type t = { cr : Commute.t; active : (int, entry) Hashtbl.t }

  let create docs =
    { cr = Commute.create ~protocol:Protocol.commute ~docs;
      active = Hashtbl.create 8 }

  let admit t ~txn ~ops =
    let ps = Commute.prepare t.cr ops in
    let flags = Array.make (Array.length ps) true in
    Hashtbl.iter
      (fun other e ->
        Array.iteri
          (fun i p ->
            Array.iteri
              (fun j q ->
                if Commute.decide_prepared q p <> Commute.Commutes then begin
                  flags.(i) <- false;
                  if e.flags.(j) && (not e.executed_all)
                     && e.invalidated = None
                  then
                    e.invalidated <-
                      Some
                        (Printf.sprintf
                           "operation of t%d conflicts with an \
                            optimistically executed operation of t%d"
                           txn other)
                end)
              e.ps)
          ps)
      t.active;
    Array.iter (fun (doc, op) -> Commute.apply_structural t.cr ~doc op) ops;
    let guides =
      List.sort_uniq compare (Array.to_list (Array.map fst ops))
      |> List.map (fun d -> (d, Commute.guide_version t.cr d))
    in
    Hashtbl.replace t.active txn
      { ps; flags; guides; executed_all = false; invalidated = None };
    Array.copy flags

  let invalidated t ~txn =
    Option.bind (Hashtbl.find_opt t.active txn) (fun e -> e.invalidated)

  let note_all_executed t ~txn =
    Option.iter (fun e -> e.executed_all <- true) (Hashtbl.find_opt t.active txn)

  let validate t ~txn =
    match Hashtbl.find_opt t.active txn with
    | None -> Ok ()
    | Some { invalidated = Some reason; _ } -> Error reason
    | Some e ->
      if Array.exists Fun.id e.flags
         && List.exists
              (fun (d, v) -> Commute.guide_version t.cr d > v)
              e.guides
      then
        Error
          "a concurrent structural mutation advanced the DataGuide past \
           this transaction's admission snapshot"
      else Ok ()

  let remove t ~txn = Hashtbl.remove t.active txn
end

type action =
  | Admit of (string * string) list
  | Executed of int
  | Remove of int

let action_to_string = function
  | Admit ops ->
    "admit ["
    ^ String.concat "; "
        (List.map (fun (d, s) -> Printf.sprintf "%s: %s" d s) ops)
    ^ "]"
  | Executed k -> Printf.sprintf "executed %d" k
  | Remove k -> Printf.sprintf "remove %d" k

(* Three documents, so many active transactions share none, or share only
   documents both of them read. *)
let actions =
  let open QCheck.Gen in
  let ops =
    list_size (int_range 1 4)
      (pair (oneofl [ "D"; "E"; "F" ]) (oneofa wide_pool))
  in
  list_size (int_range 1 40)
    (frequency
       [ (4, map (fun l -> Admit l) ops);
         (1, map (fun k -> Executed k) small_nat);
         (1, map (fun k -> Remove k) small_nat) ])

let prop_pruned_admit_matches_all_pairs =
  QCheck.Test.make ~name:"pruned admit = all-pairs admit" ~count:150
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map action_to_string l))
       actions)
    (fun acts ->
      let docs () =
        List.map
          (fun name -> Xml_parser.parse ~name pool_doc)
          [ "D"; "E"; "F" ]
      in
      let o = Optimist.create ~protocol:Protocol.commute ~docs:(docs ()) in
      let r = All_pairs.create (docs ()) in
      let admitted = ref 0 in
      let txn_of k = if !admitted = 0 then 0 else 1 + (k mod !admitted) in
      List.iter
        (fun act ->
          (match act with
           | Admit l ->
             incr admitted;
             let txn = !admitted in
             let ops = Array.of_list (List.map (fun (d, s) -> (d, op s)) l) in
             let got = Optimist.admit o ~txn ~ops in
             let want = All_pairs.admit r ~txn ~ops in
             if got <> want then
               QCheck.Test.fail_reportf "t%d: flags differ" txn
           | Executed k ->
             Optimist.note_all_executed o ~txn:(txn_of k);
             All_pairs.note_all_executed r ~txn:(txn_of k)
           | Remove k ->
             Optimist.remove o ~txn:(txn_of k);
             All_pairs.remove r ~txn:(txn_of k));
          for txn = 1 to !admitted do
            if Optimist.invalidated o ~txn <> All_pairs.invalidated r ~txn
            then QCheck.Test.fail_reportf "t%d: invalidation differs" txn;
            if Optimist.validate o ~txn <> All_pairs.validate r ~txn then
              QCheck.Test.fail_reportf "t%d: validation differs" txn
          done)
        acts;
      true)

(* --- exhaustive exploration ---------------------------------------------- *)

let explore ?tap ?(naive = false) ?(two_phase = false)
    ?(protocol = Protocol.xdgl) scen =
  Explore.explore
    ~config:
      { Explore.default_config with Explore.protocol; two_phase; naive; tap }
    scen

let assert_clean label (o : Explore.outcome) =
  checkb (label ^ ": commute analysis sound") true (o.Explore.o_unsound = []);
  checkb (label ^ ": not truncated") false o.Explore.o_truncated;
  checkb (label ^ ": explored some schedules") true (o.Explore.o_explored > 0);
  checki (label ^ ": zero violations") 0 o.Explore.o_violations

let test_ref_exhaustive_xdgl () =
  assert_clean "xdgl" (explore Explore.reference)

let test_ref_exhaustive_node2pl () =
  assert_clean "node2pl" (explore ~protocol:Protocol.node2pl Explore.reference)

let test_ref_exhaustive_2pc () =
  assert_clean "xdgl+2pc" (explore ~two_phase:true Explore.reference)

(* The three pinned scenarios, exhaustively explored under the optimistic
   Commute config: every schedule it accepts — lock-free reads, downgraded
   writers, validation aborts — must stay checker-clean, and the disjoint
   scenario must still collapse to a single schedule. *)
let test_ref_exhaustive_commute () =
  assert_clean "commute" (explore ~protocol:Protocol.commute Explore.reference)

let test_ref_exhaustive_commute_2pc () =
  assert_clean "commute+2pc"
    (explore ~protocol:Protocol.commute ~two_phase:true Explore.reference)

let test_deadlock_exhaustive_commute () =
  assert_clean "commute deadlock"
    (explore ~protocol:Protocol.commute Explore.deadlock)

let test_disjoint_collapses_commute () =
  let o = explore ~protocol:Protocol.commute Explore.disjoint in
  assert_clean "commute disjoint" o;
  checki "single schedule" 1 o.Explore.o_explored

let test_deadlock_exhaustive () =
  (* Every interleaving either serializes or deadlocks; the oracle checks
     the detector recovers and always kills the correct victim. *)
  assert_clean "deadlock" (explore Explore.deadlock)

let test_reduction_factor () =
  let dpor = explore Explore.reference in
  let naive = explore ~naive:true Explore.reference in
  assert_clean "dpor" dpor;
  assert_clean "naive" naive;
  checkb
    (Printf.sprintf "reduction >= 2x (naive %d vs dpor %d)"
       naive.Explore.o_explored dpor.Explore.o_explored)
    true
    (naive.Explore.o_explored >= 2 * dpor.Explore.o_explored)

let test_disjoint_collapses () =
  (* Fully commuting transactions: sleep sets must collapse the whole
     delivery-order space to a single representative schedule. *)
  let o = explore Explore.disjoint in
  assert_clean "disjoint" o;
  checki "single schedule" 1 o.Explore.o_explored;
  checkb "pruning happened" true (o.Explore.o_pruned > 0)

(* --- seeded-bug coverage -------------------------------------------------- *)

(* The reference scenario's last transaction (t2, the reader) is the one
   the taps hide. *)
let last_txn = List.length Explore.reference.Explore.sc_txns

let test_skip_release_found_by_exploration () =
  let o =
    explore ~tap:(Faults.skip_release ~txn:last_txn) Explore.reference
  in
  checkb "explorer finds the hidden release" true (o.Explore.o_violations > 0);
  checkb "a violating schedule is reported" true (o.Explore.o_violating <> []);
  let vs = List.hd o.Explore.o_violating in
  checkb "violating schedule carries its decision path" true
    (vs.Explore.vs_path <> [])

let test_skip_release_missed_by_random () =
  (* The bug needs the last transaction's local shipment postponed past its
     rival's full remote round trip — bounded jitter on remote links can
     never reorder a zero-delay local delivery that far. *)
  let cfg =
    { Explore.default_config with
      Explore.tap = Some (Faults.skip_release ~txn:last_txn) }
  in
  let seeds = List.init 50 (fun i -> i + 1) in
  let runs = Explore.random_runs Explore.reference cfg ~seeds in
  checki "50 seeds" 50 (List.length runs);
  List.iter
    (fun (seed, vs) ->
      checki (Printf.sprintf "seed %d sees no violation" seed) 0
        (List.length vs))
    runs

let test_commit_reorder_found () =
  let o =
    explore ~two_phase:true ~tap:(Faults.commit_reorder ~txn:last_txn)
      Explore.reference
  in
  checkb "2pc-order violation found" true (o.Explore.o_violations > 0)

(* --- deadlock victim tie-break ------------------------------------------- *)

let test_victim_timestamp_tie () =
  (* Both transactions are submitted at virtual time 0.0 and deadlock by
     acquiring the two documents in opposite orders. With equal admission
     timestamps the newest-transaction rule must fall back to the larger
     txn id — deterministically killing t2, never t1. *)
  let sim = Sim.create () in
  let net = Net.of_config ~sim Net.Config.lan in
  let placements =
    [ { Allocation.doc = Xml_parser.parse ~name:"A" "<r><a><x>0</x></a></r>";
        sites = [ 0 ] };
      { Allocation.doc = Xml_parser.parse ~name:"B" "<r><b><y>0</y></b></r>";
        sites = [ 1 ] } ]
  in
  let config =
    { (Cluster.default_config ~protocol:Protocol.xdgl ()) with
      deadlock_period_ms = 5.0 }
  in
  let cluster = Cluster.create ~sim ~net ~n_sites:2 config ~placements in
  Cluster.shutdown_when_idle cluster;
  let statuses = Hashtbl.create 2 in
  let submit ~coordinator ops =
    Cluster.submit cluster ~client:0 ~coordinator ~ops
      ~on_finish:(fun txn ->
        Hashtbl.replace statuses txn.Txn.id txn.Txn.status)
    |> ignore
  in
  let ch doc path = (doc, op (Printf.sprintf "CHANGE %s TO \"9\"" path)) in
  submit ~coordinator:0 [ ch "A" "/r/a/x"; ch "B" "/r/b/y" ];
  submit ~coordinator:1 [ ch "B" "/r/b/y"; ch "A" "/r/a/x" ];
  Sim.run sim;
  checkb "t1 committed" true
    (Hashtbl.find_opt statuses 1 = Some Txn.Committed);
  checkb "t2 aborted (tie broken by id)" true
    (Hashtbl.find_opt statuses 2 = Some Txn.Aborted)

(* --- registration --------------------------------------------------------- *)

let () =
  Alcotest.run "explore"
    [ ( "commute",
        [ Alcotest.test_case "verdict expectations" `Quick
            test_decide_expectations;
          Alcotest.test_case "self-check and symmetry" `Quick test_self_check;
          QCheck_alcotest.to_alcotest prop_commutes_is_sound;
          QCheck_alcotest.to_alcotest prop_compiled_matches_oracle;
          Alcotest.test_case "oracle branches reached" `Quick
            test_oracle_branches_reached;
          QCheck_alcotest.to_alcotest prop_pruned_admit_matches_all_pairs ] );
      ( "explore",
        [ Alcotest.test_case "ref exhaustive (XDGL)" `Quick
            test_ref_exhaustive_xdgl;
          Alcotest.test_case "ref exhaustive (Node2PL)" `Quick
            test_ref_exhaustive_node2pl;
          Alcotest.test_case "ref exhaustive (XDGL+2PC)" `Quick
            test_ref_exhaustive_2pc;
          Alcotest.test_case "deadlock scenario exhaustive" `Quick
            test_deadlock_exhaustive;
          Alcotest.test_case "DPOR reduction >= 2x" `Quick
            test_reduction_factor;
          Alcotest.test_case "disjoint collapses to one schedule" `Quick
            test_disjoint_collapses;
          Alcotest.test_case "ref exhaustive (Commute)" `Quick
            test_ref_exhaustive_commute;
          Alcotest.test_case "ref exhaustive (Commute+2PC)" `Quick
            test_ref_exhaustive_commute_2pc;
          Alcotest.test_case "deadlock exhaustive (Commute)" `Quick
            test_deadlock_exhaustive_commute;
          Alcotest.test_case "disjoint collapses (Commute)" `Quick
            test_disjoint_collapses_commute ] );
      ( "mutations",
        [ Alcotest.test_case "skip-release found by exploration" `Quick
            test_skip_release_found_by_exploration;
          Alcotest.test_case "skip-release missed by 50 random seeds" `Quick
            test_skip_release_missed_by_random;
          Alcotest.test_case "commit-reorder found" `Quick
            test_commit_reorder_found ] );
      ( "victim",
        [ Alcotest.test_case "equal-timestamp tie broken by id" `Quick
            test_victim_timestamp_tie ] ) ]
