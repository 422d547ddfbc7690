(* Tests for the symbolic soundness certifier (Dtx_cert): clean
   certification of every protocol with its pass-(a) figures pinned,
   precision ordering, FSM/WAL pass integrity, the conflict oracle's
   per-pair bits and view rules — plus the CLI's protocol-config parsing
   (Protocol_arg edge cases). The certifier's three seeded faults run in
   test_faults. No test here mutates global state, so the cases may run in
   any order. *)

module Cert = Dtx_cert.Cert
module Protocol = Dtx_protocol.Protocol
module Protocol_arg = Dtx_cli_args.Protocol_arg
module Op = Dtx_update.Op
module Node = Dtx_xml.Node
module Dg = Dtx_dataguide.Dataguide
module Xdgl_rules = Dtx_protocol.Xdgl_rules
module Eval = Dtx_xpath.Eval
module Xp = Dtx_xpath.Parser

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
   pure function of the protocol set, so recomputing it per test would only
   re-run the recovery simulations. *)
let clean = lazy (Cert.certify ())

let test_clean_certifies () =
  let r = Lazy.force clean in
  checkb "certified" true r.Cert.r_certified;
  check "violations" 0 r.Cert.r_violations;
  checkb "all six protocols present" true
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
  checkb "commute pairs checked" true (commute.Cert.pr_commute_checked > 0);
  (* Pinned pass-(a) figures: (conflicting, known_gaps, false_collisions,
     precision, commute_checked) over the 153 pairs. *)
  List.iter
    (fun (name, conflicting, gaps, fc, precision, checked) ->
      let p = proto_by_name r name in
      check (name ^ " pairs") 153 p.Cert.pr_pairs;
      check (name ^ " conflicting") conflicting p.Cert.pr_conflicting;
      check (name ^ " known_gaps") gaps p.Cert.pr_known_gaps;
      check (name ^ " false_collisions") fc p.Cert.pr_false_collisions;
      Alcotest.(check string)
        (name ^ " precision") precision
        (Printf.sprintf "%.4f" p.Cert.pr_precision);
      check (name ^ " commute_checked") checked p.Cert.pr_commute_checked)
    [
      ("XDGL", 57, 5, 10, "0.8958", 0);
      ("XDGL+VL", 57, 5, 10, "0.8958", 0);
      ("Node2PL", 42, 0, 49, "0.5586", 0);
      ("Doc2PL", 42, 0, 96, "0.1351", 0);
      ("taDOM", 42, 3, 10, "0.9099", 0);
      ("Commute", 57, 5, 8, "0.9167", 153);
    ]

(* --- the conflict oracle ------------------------------------------------- *)

(* One character per unordered template pair (i <= j, row-major): 1 when
   the oracle sees a conflict. *)
let conflict_bits ?include_positional oracle =
  let n = Array.length oracle in
  let b = Buffer.create 160 in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      Buffer.add_char b
        (if Cert.conflicts ?include_positional oracle.(i) oracle.(j) then '1'
         else '0')
    done
  done;
  Buffer.contents b

let test_oracle_conflict_bits () =
  let ops = Cert.parse_templates () in
  let guide = Cert.build_guide_oracle ops in
  let inst = Cert.build_instance_oracle ops in
  let pin name expected got = Alcotest.(check string) name expected got in
  pin "guide"
    "000001101011011110000000100001001000001110001001001101011011110001010010\
     001100001100000100000000001010000001100001101100100011100010100010100001\
     101101101"
    (conflict_bits guide);
  pin "guide, positional accesses dropped"
    "000001101011011110000000100001001000001110001001001101011011110001010010\
     001100001100000100000000001010000001100001001100100011100000100000100001\
     001100101"
    (conflict_bits ~include_positional:false guide);
  pin "instance"
    "000001101011011110000000100000000000001110000001001101011011110001010010\
     001100001000000100000000001010000001100001100100100011000010000000000000\
     000000001"
    (conflict_bits inst);
  pin "instance, positional accesses dropped"
    "000001101011011110000000100000000000001110000001001101011011110001010010\
     001100001000000100000000001010000001100000000100100011000000000000000000\
     000000001"
    (conflict_bits ~include_positional:false inst)

let op_of s =
  match Op.parse s with Ok op -> op | Error e -> Alcotest.failf "%s: %s" s e

(* The node ids an access list writes under [aspect], sorted. *)
let writes acc aspect =
  List.sort_uniq compare
    (List.filter_map
       (fun a ->
         if a.Cert.a_write && a.Cert.a_aspect = aspect then Some a.Cert.a_node
         else None)
       acc)

let ids id ns = List.sort_uniq compare (List.map id ns)

(* Rules the template universe's conflict bits cannot tell apart, asserted
   on [accesses] directly for both views. *)
let test_oracle_view_rules () =
  let dg = Dg.build (Cert.parse_universe ()) in
  let gv = Xdgl_rules.guide_view dg in
  let g path = Dg.match_path dg (Xp.parse path) in
  let gid (n : Dg.node) = n.Dg.dg_id in
  let doc = Cert.parse_universe () in
  let iv = Xdgl_rules.instance_view doc in
  let i path = Eval.select doc (Xp.parse path) in
  let iid (n : Node.t) = n.Node.id in
  let writes_of v s aspect = writes (Cert.accesses v (op_of s)) aspect in
  (* REMOVE writes the parent's child list. *)
  Alcotest.(check (list int))
    "guide REMOVE writes the parent's A_list" (ids gid (g "/r/a"))
    (writes_of gv "REMOVE /r/a/b" Cert.A_list);
  Alcotest.(check (list int))
    "instance REMOVE writes the parent's A_list" (ids iid (i "/r/a"))
    (writes_of iv "REMOVE /r/a/b" Cert.A_list);
  Alcotest.(check (list int))
    "TRANSPOSE writes the source parent's A_list"
    (ids iid (i "/r/a" @ i "/r/d"))
    (writes_of iv "TRANSPOSE /r/d/b INTO /r/a" Cert.A_list);
  (* RENAME relabels a whole guide subtree, but one instance node. *)
  let a_subtree = Dg.descendants_or_self (List.hd (g "/r/a")) in
  checkb "guide /r/a has descendants" true (List.length a_subtree > 1);
  let renamed = writes_of gv "RENAME /r/a TO e" Cert.A_struct in
  checkb "guide RENAME writes A_struct on the whole subtree" true
    (List.for_all (fun n -> List.mem (gid n) renamed) a_subtree);
  Alcotest.(check (list int))
    "instance RENAME writes A_struct on the node only" (ids iid (i "/r/a"))
    (writes_of iv "RENAME /r/a TO e" Cert.A_struct);
  (* INSERT INTO writes the guide landing node; the instance view has no
     landing, only the connect node's child list. *)
  let insert = "INSERT INTO /r/d <z>x</z>" in
  let gacc = Cert.accesses gv (op_of insert) in
  let landing = ids gid (g "/r/d/z") in
  check "guide landing node created" 1 (List.length landing);
  Alcotest.(check (list int)) "guide INSERT INTO writes the landing A_struct"
    landing (writes gacc Cert.A_struct);
  Alcotest.(check (list int))
    "guide INSERT INTO writes the landing A_content" landing
    (writes gacc Cert.A_content);
  Alcotest.(check (list int))
    "instance INSERT INTO writes only the connect node's A_list"
    (ids iid (i "/r/d"))
    (writes_of iv insert Cert.A_list);
  check "instance INSERT INTO writes nothing else" 1
    (List.length
       (List.filter (fun a -> a.Cert.a_write)
          (Cert.accesses iv (op_of insert))))

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
  List.iter
    (fun (machine, reached) ->
      match List.find_opt (fun f -> f.Cert.f_machine = machine) r.Cert.r_fsm with
      | Some f -> check (machine ^ " reached pairs") reached f.Cert.f_reached
      | None -> Alcotest.failf "%s missing from the report" machine)
    [ ("coordinator", 7); ("participant", 11) ];
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

(* --- satellite: Protocol_arg edge cases ---------------------------------- *)

let is_error = function Error (`Msg _) -> true | Ok _ -> false

let test_parse_unknown_protocol () =
  checkb "unknown name rejected" true
    (is_error (Protocol_arg.parse_config "nosuchprotocol"));
  checkb "unknown name in list rejected" true
    (is_error (Protocol_arg.parse_configs "xdgl,nosuchprotocol"));
  (* A sweep over no configuration would pass having checked nothing. *)
  checkb "empty list rejected" true (is_error (Protocol_arg.parse_configs " , "))

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
    checkb "all covers every protocol" true
      (List.length cs >= List.length Protocol.all)
  | Error (`Msg m) -> Alcotest.failf "all rejected: %s" m

let test_parse_two_pc_suffix_any_case () =
  (* Protocol names are case-insensitive, and so is the commit-flavour
     suffix; a name that itself contains '+' keeps it. *)
  List.iter
    (fun (spec, kind, two_phase) ->
      match Protocol_arg.parse_config spec with
      | Ok (k, tp) ->
        checkb (spec ^ " parses to its config") true
          (k = kind && tp = two_phase)
      | Error (`Msg m) -> Alcotest.failf "%s rejected: %s" spec m)
    [ ("xdgl+2pc", Protocol.xdgl, true);
      ("XDGL+2PC", Protocol.xdgl, true);
      ("Commute+2Pc", Protocol.commute, true);
      ("XDGL+VL+2PC", Protocol.xdgl_value, true);
      ("XDGL+VL", Protocol.xdgl_value, false) ];
  checkb "bare suffix rejected" true (is_error (Protocol_arg.parse_config "+2PC"))

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
      ( "oracle",
        [ Alcotest.test_case "conflict bits" `Quick test_oracle_conflict_bits;
          Alcotest.test_case "view rules" `Quick test_oracle_view_rules ] );
      ( "protocol-arg",
        [ Alcotest.test_case "unknown protocol" `Quick
            test_parse_unknown_protocol;
          Alcotest.test_case "duplicate configs" `Quick
            test_parse_duplicate_configs;
          Alcotest.test_case "+2pc suffix in any case" `Quick
            test_parse_two_pc_suffix_any_case ] );
    ]
