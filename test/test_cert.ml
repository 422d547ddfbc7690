(* Tests for the symbolic soundness certifier (Dtx_cert): clean
   certification of every registered protocol, precision ordering, FSM/WAL
   pass integrity — plus the protocol registry and CLI-parsing hardening
   (duplicate-alias rejection in Protocol.register, Protocol_arg edge
   cases). The certifier's four seeded faults run in test_faults.

   Ordering matters within this file: the Protocol_arg +2pc test registers
   a two_pc_compatible=false kind, so the clean-run tests come first and
   the registry-polluting ones last. Alcotest runs cases in declaration
   order. *)

module Cert = Dtx_cert.Cert
module Protocol = Dtx_protocol.Protocol
module Protocol_arg = Dtx_cli_args.Protocol_arg
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Op = Dtx_update.Op
module Doc = Dtx_xml.Doc

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let proto_by_name r name =
  match
    List.find_opt (fun p -> p.Cert.pr_name = name) r.Cert.r_protocols
  with
  | Some p -> p
  | None -> Alcotest.failf "protocol %s missing from the report" name

(* --- clean run ----------------------------------------------------------- *)

(* One clean run shared by the read-only assertions below; certify is a
   pure function of the registry, so recomputing it per test would only
   re-run the recovery simulations. *)
let clean = lazy (Cert.certify ())

let test_clean_certifies () =
  let r = Lazy.force clean in
  checkb "certified" true r.Cert.r_certified;
  check "violations" 0 r.Cert.r_violations;
  checkb "all six registered protocols present" true
    (List.length r.Cert.r_protocols >= 6);
  List.iter
    (fun p ->
      check
        (p.Cert.pr_name ^ " violations")
        0
        (List.length p.Cert.pr_violations))
    r.Cert.r_protocols

let test_clean_universe_shape () =
  let r = Lazy.force clean in
  List.iter
    (fun p ->
      checkb (p.Cert.pr_name ^ " pairs > 100") true (p.Cert.pr_pairs > 100);
      checkb
        (p.Cert.pr_name ^ " has conflicting pairs")
        true
        (p.Cert.pr_conflicting > 0);
      checkb
        (p.Cert.pr_name ^ " precision in [0,1]")
        true
        (p.Cert.pr_precision >= 0.0 && p.Cert.pr_precision <= 1.0))
    r.Cert.r_protocols;
  (* The three-way agreement only runs for the optimistic protocol. *)
  let commute = proto_by_name r "Commute" in
  checkb "commute pairs checked" true (commute.Cert.pr_commute_checked > 0)

let test_commute_precision_beats_xdgl () =
  (* The whole point of the optimistic protocol: semantic commutativity
     avoids lock collisions the XDGL footprint alone cannot, so its
     effective precision must be strictly higher. *)
  let r = Lazy.force clean in
  let xdgl = proto_by_name r "XDGL" in
  let commute = proto_by_name r "Commute" in
  checkb "commute precision > xdgl precision" true
    (commute.Cert.pr_precision > xdgl.Cert.pr_precision)

let test_fsm_pass_integrity () =
  let r = Lazy.force clean in
  check "two machines audited" 2 (List.length r.Cert.r_fsm);
  List.iter
    (fun f ->
      check (f.Cert.f_machine ^ " dropped") 0 f.Cert.f_dropped;
      check
        (f.Cert.f_machine ^ " violations")
        0
        (List.length f.Cert.f_violations);
      checkb (f.Cert.f_machine ^ " handles pairs") true (f.Cert.f_handled > 0);
      checkb
        (f.Cert.f_machine ^ " reached pairs recorded")
        true (f.Cert.f_reached > 0);
      (* Every (phase x kind) cell is classified exactly once, so the
         three buckets partition the table. *)
      checkb
        (f.Cert.f_machine ^ " table partitioned")
        true
        (f.Cert.f_handled + f.Cert.f_ignored + f.Cert.f_impossible
        > f.Cert.f_reached))
    r.Cert.r_fsm;
  check "required-reachable all reached" 0
    (List.length r.Cert.r_required_missing);
  check "wal crash points clean" 0 (List.length r.Cert.r_wal_violations)

let test_runtime_recorded () =
  let r = Lazy.force clean in
  checkb "universe pass timed" true (r.Cert.r_universe_seconds >= 0.0);
  checkb "runtime covers universe pass" true
    (r.Cert.r_runtime_seconds >= r.Cert.r_universe_seconds);
  (* An impossible budget must fail certification through the report. *)
  let tight = Cert.certify ~max_seconds:0.0 () in
  checkb "zero budget fails" false tight.Cert.r_certified;
  checkb "budget violation reported" true
    (List.exists
       (fun s ->
         String.length s >= 13 && String.sub s 0 13 = "universe pass")
       tight.Cert.r_required_missing)

let test_json_renders () =
  let r = Lazy.force clean in
  let js = Cert.to_json r in
  checkb "mentions certified" true
    (let needle = "\"certified\": true" in
     let n = String.length needle in
     let rec scan i =
       i + n <= String.length js
       && (String.sub js i n = needle || scan (i + 1))
     in
     scan 0)

(* --- satellite: registry duplicate rejection ----------------------------- *)

let dummy_derive ~dg:_ (d : Doc.t) op =
  let mode = if Op.is_update op then Mode.X else Mode.ST in
  Ok [ (Table.resource d.Doc.name 0, mode) ]

let caps_plain =
  {
    Protocol.uses_dataguide = false;
    caches_derivations = false;
    needs_validation = false;
    two_pc_compatible = false;
  }

let test_register_rejects_duplicates () =
  (* Both a duplicate primary name and a duplicate alias must be refused
     before anything is mutated, so the registry stays clean. *)
  let before = List.length (Protocol.registered ()) in
  let attempt name aliases =
    match
      Protocol.register ~name ~aliases ~caps:caps_plain
        ~derive:(fun ~dg d op ->
          match dummy_derive ~dg d op with
          | Ok rs -> Ok (rs, 1)
          | Error _ as e -> e)
        ~structure:(fun ~dg:_ _ -> 1)
        ()
    with
    | _ -> Alcotest.failf "register %s accepted a duplicate" name
    | exception Invalid_argument msg ->
      checkb (name ^ " error names the collision") true
        (let needle = "collides" in
         let n = String.length needle in
         let rec scan i =
           i + n <= String.length msg
           && (String.sub msg i n = needle || scan (i + 1))
         in
         scan 0)
  in
  attempt "XDGL" [];
  attempt "FreshName" [ "xdgl" ];
  check "registry unchanged" before (List.length (Protocol.registered ()))

(* --- satellite: Protocol_arg edge cases ---------------------------------- *)

let is_error = function Error (`Msg _) -> true | Ok _ -> false

let test_parse_unknown_protocol () =
  checkb "unknown name rejected" true
    (is_error (Protocol_arg.parse_config "nosuchprotocol"));
  checkb "unknown name in list rejected" true
    (is_error (Protocol_arg.parse_configs "xdgl,nosuchprotocol"))

let test_parse_duplicate_configs () =
  checkb "duplicate plain entry rejected" true
    (is_error (Protocol_arg.parse_configs "xdgl,xdgl"));
  checkb "duplicate via alias rejected" true
    (is_error (Protocol_arg.parse_configs "xdgl,XDGL"));
  (* Same protocol under different commit flavours is two distinct
     configs, not a duplicate. *)
  (match Protocol_arg.parse_configs "xdgl,xdgl+2pc" with
  | Ok cs -> check "flavours distinct" 2 (List.length cs)
  | Error (`Msg m) -> Alcotest.failf "flavour list rejected: %s" m);
  match Protocol_arg.parse_configs "all" with
  | Ok cs ->
    checkb "all covers every registered protocol" true
      (List.length cs >= List.length (Protocol.registered ()))
  | Error (`Msg m) -> Alcotest.failf "all rejected: %s" m

let test_parse_two_pc_incompatible () =
  (* Registers a two_pc_compatible=false kind, polluting the registry —
     which is why this test is declared last. *)
  let kind =
    Protocol.register ~name:"CertTestNo2pc" ~aliases:[] ~caps:caps_plain
      ~derive:(fun ~dg d op ->
        match dummy_derive ~dg d op with
        | Ok rs -> Ok (rs, 1)
        | Error _ as e -> e)
      ~structure:(fun ~dg:_ _ -> 1)
      ()
  in
  checkb "kind registered" true
    (Protocol.kind_of_string "certtestno2pc" = Some kind);
  (match Protocol_arg.parse_config "certtestno2pc" with
  | Ok (k, two_phase) ->
    checkb "plain flavour accepted" true (k = kind && not two_phase)
  | Error (`Msg m) -> Alcotest.failf "plain flavour rejected: %s" m);
  match Protocol_arg.parse_config "certtestno2pc+2pc" with
  | Ok _ -> Alcotest.fail "+2pc accepted on a two_pc_compatible=false kind"
  | Error (`Msg m) ->
    checkb "error mentions two-phase" true
      (let needle = "two-phase" in
       let n = String.length needle in
       let rec scan i =
         i + n <= String.length m && (String.sub m i n = needle || scan (i + 1))
       in
       scan 0)

let () =
  Alcotest.run "cert"
    [
      ( "clean",
        [ Alcotest.test_case "certifies" `Quick test_clean_certifies;
          Alcotest.test_case "universe shape" `Quick test_clean_universe_shape;
          Alcotest.test_case "commute precision beats xdgl" `Quick
            test_commute_precision_beats_xdgl;
          Alcotest.test_case "fsm pass integrity" `Quick
            test_fsm_pass_integrity;
          Alcotest.test_case "runtime recorded" `Quick test_runtime_recorded;
          Alcotest.test_case "json renders" `Quick test_json_renders ] );
      ( "registry",
        [ Alcotest.test_case "duplicate rejection" `Quick
            test_register_rejects_duplicates ] );
      ( "protocol-arg",
        [ Alcotest.test_case "unknown protocol" `Quick
            test_parse_unknown_protocol;
          Alcotest.test_case "duplicate configs" `Quick
            test_parse_duplicate_configs;
          Alcotest.test_case "+2pc incompatible" `Quick
            test_parse_two_pc_incompatible ] );
    ]
