(* Tests for the transaction record and its status machine. *)

module Txn = Dtx_txn.Txn
module Op = Dtx_update.Op
module P = Dtx_xpath.Parser

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mk_ops () =
  [ ("d1", Op.Query (P.parse "/people/person"));
    ("d2", Op.Insert { target = P.parse "/products"; pos = Op.Into; fragment = "<p/>" });
    ("d1", Op.Query (P.parse "/people/person/name")) ]

let test_create () =
  let t = Txn.create ~id:7 ~client:2 ~coordinator:1 (mk_ops ()) in
  check "id" 7 t.Txn.id;
  check "ops" 3 (Array.length t.Txn.ops);
  checkb "active" true (t.Txn.status = Txn.Active);
  checkb "not finished" false (Txn.is_finished t);
  Alcotest.(check (list string)) "docs sorted unique" [ "d1"; "d2" ] (Txn.docs t)

let test_op_iteration () =
  let t = Txn.create ~id:1 ~client:0 ~coordinator:0 (mk_ops ()) in
  (match Txn.next_operation t with
   | Some r ->
     check "first op index" 0 r.Txn.op_index;
     Alcotest.(check string) "doc" "d1" r.Txn.doc
   | None -> Alcotest.fail "expected op");
  Txn.advance t;
  (match Txn.next_operation t with
   | Some r -> check "second" 1 r.Txn.op_index
   | None -> Alcotest.fail "expected op");
  checkb "first marked executed" true t.Txn.ops.(0).Txn.executed;
  Txn.advance t;
  Txn.advance t;
  checkb "finished" true (Txn.is_finished t);
  checkb "no more ops" true (Txn.next_operation t = None);
  (* Advancing past the end is harmless. *)
  Txn.advance t

let test_is_update () =
  let t = Txn.create ~id:1 ~client:0 ~coordinator:0 (mk_ops ()) in
  checkb "has update" true (Txn.is_update t);
  let ro =
    Txn.create ~id:2 ~client:0 ~coordinator:0
      [ ("d1", Op.Query (P.parse "/a")) ]
  in
  checkb "read-only" false (Txn.is_update ro)

let test_response_time () =
  let t = Txn.create ~id:1 ~client:0 ~coordinator:0 (mk_ops ()) in
  t.Txn.submitted_at <- 10.0;
  t.Txn.finished_at <- 35.5;
  Alcotest.(check (float 1e-9)) "response" 25.5 (Txn.response_time t)

let test_status_strings () =
  Alcotest.(check (list string)) "statuses"
    [ "active"; "waiting"; "committed"; "aborted"; "failed" ]
    (List.map Txn.status_to_string
       [ Txn.Active; Txn.Waiting; Txn.Committed; Txn.Aborted; Txn.Failed ])

let test_empty_txn () =
  let t = Txn.create ~id:1 ~client:0 ~coordinator:0 [] in
  checkb "immediately finished" true (Txn.is_finished t);
  checkb "no ops" true (Txn.next_operation t = None);
  Alcotest.(check (list string)) "no docs" [] (Txn.docs t)

let () =
  Alcotest.run "txn"
    [ ( "lifecycle",
        [ Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "op iteration" `Quick test_op_iteration;
          Alcotest.test_case "is_update" `Quick test_is_update;
          Alcotest.test_case "response time" `Quick test_response_time;
          Alcotest.test_case "status strings" `Quick test_status_strings;
          Alcotest.test_case "empty txn" `Quick test_empty_txn ] ) ]
