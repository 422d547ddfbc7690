module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Checker = Dtx_check.Checker
module Lattice = Dtx_check.Lattice
module Workload = Dtx_workload.Workload
module Explore = Dtx_explore.Explore
module Cert = Dtx_cert.Cert

type tap = Checker.event -> Checker.event option

let skip_release ~txn = function
  | Checker.Lock
      { ev = Table.Released { txn = t; kind = Table.End_of_txn; _ }; _ }
  | Checker.Part { ev = Dtx.Participant.Finished { txn = t; _ }; _ }
    when t = txn ->
    None
  | ev -> Some ev

let skip_one_release ~txn =
  let hidden = ref false in
  function
  | Checker.Lock
      { ev = Table.Released { txn = t; kind = Table.End_of_txn; _ }; _ }
    when t = txn && not !hidden ->
    hidden := true;
    None
  | ev -> Some ev

let commit_reorder ~txn = function
  | Checker.Net
      { dir = Dtx_net.Net.Deliver;
        msg = Dtx_net.Msg.Vote { txn = t; ok = true };
        _ }
    when t = txn ->
    None
  | ev -> Some ev

type finding = { check : string; detail : string }

type t = { name : string; check : string; run : inject:bool -> finding list }

let tagged check details = List.map (fun detail -> { check; detail }) details

let of_violations =
  List.map (fun v ->
      { check = v.Checker.v_invariant; detail = v.Checker.v_detail })

let lattice ~inject =
  let compat = if inject then Lattice.st_ix_flipped else Mode.compatible in
  match
    Lattice.check_with ~compat ~conflict_mask:Mode.conflict_mask
      ~intention_for:Mode.intention_for ()
  with
  | Ok () -> []
  | Error msgs -> tagged "mode-lattice" msgs

(* The analyzer's smoke configuration: one seeded XDGL workload, 6 clients
   on 3 sites. Its t4 is a multi-site reader whose released locks later
   writers acquire. *)
let workload ~two_phase tap ~inject =
  let checker = Checker.create () in
  let mutate = if inject then Some tap else None in
  ignore
    (Workload.run
       ~instrument:(fun c -> Checker.attach ?mutate checker c)
       { Workload.default_params with
         seed = 7; n_clients = 6; n_sites = 3; txns_per_client = 3;
         ops_per_txn = 4; update_txn_pct = 30; base_size_mb = 2.0;
         protocol = Dtx_protocol.Protocol.xdgl; two_phase_commit = two_phase });
  of_violations (Checker.finish checker)

(* Exhaustive exploration of the reference scenario. *)
let explore ~two_phase tap ~inject =
  let tap = if inject then Some tap else None in
  let o =
    Explore.explore
      ~config:{ Explore.default_config with two_phase; tap }
      Explore.reference
  in
  List.concat_map (fun vs -> of_violations vs.Explore.vs_violations)
    o.Explore.o_violating

(* One check per certifier pass: (a) lock coverage, (b) the FSM audit with
   its required pairs and WAL crash points, (c) capabilities. *)
let cert fault ~inject =
  let r = Cert.certify ?mutate:(if inject then Some fault else None) () in
  List.concat_map (fun p -> tagged "lock-coverage" p.Cert.pr_violations)
    r.Cert.r_protocols
  @ List.concat_map (fun f -> tagged "fsm" f.Cert.f_violations) r.Cert.r_fsm
  @ tagged "fsm" (r.Cert.r_required_missing @ r.Cert.r_wal_violations)
  @ List.concat_map (fun c -> tagged "caps" c.Cert.c_violations) r.Cert.r_caps

(* The reference scenario's last transaction: t2, the reader. *)
let ref_last = List.length Explore.reference.Explore.sc_txns

let all =
  [ { name = "lattice/compat-flip"; check = "mode-lattice"; run = lattice };
    { name = "analyze/skip-release"; check = "lock-compat";
      run = workload ~two_phase:false (skip_release ~txn:4) };
    { name = "analyze/skip-one-release"; check = "lock-balance";
      run =
        (fun ~inject ->
          workload ~two_phase:false (skip_one_release ~txn:4) ~inject) };
    { name = "analyze/commit-reorder"; check = "2pc-order";
      run = workload ~two_phase:true (commit_reorder ~txn:4) };
    { name = "explore/skip-release"; check = "lock-compat";
      run = explore ~two_phase:false (skip_release ~txn:ref_last) };
    { name = "explore/commit-reorder"; check = "2pc-order";
      run = explore ~two_phase:true (commit_reorder ~txn:ref_last) };
    { name = "cert/flip-compat-bit"; check = "lock-coverage";
      run = cert Cert.Flip_compat_bit };
    { name = "cert/drop-handler"; check = "fsm"; run = cert Cert.Drop_handler };
    { name = "cert/wrong-caps"; check = "caps"; run = cert Cert.Wrong_caps };
    { name = "cert/weaken-commute"; check = "lock-coverage";
      run = cert Cert.Weaken_commute } ]

let assess (e : t) =
  let found = e.run ~inject:true in
  let caught = List.filter (fun (f : finding) -> f.check = e.check) found in
  match (caught, e.run ~inject:false) with
  | [], _ ->
    let checks = List.map (fun { check; detail = _ } -> check) found in
    let checks = List.sort_uniq compare checks in
    Error
      (Printf.sprintf "not caught by %s (caught by: %s)" e.check
         (if checks = [] then "nothing" else String.concat ", " checks))
  | _, [] ->
    Ok
      (Printf.sprintf "caught by %s (%d violation(s)); clean without the fault"
         e.check (List.length caught))
  | _, f :: _ ->
    Error
      (Printf.sprintf "caught by %s, but the fault-free run finds [%s] %s"
         e.check f.check f.detail)
