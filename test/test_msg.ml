(* Tests for the typed wire protocol: encode/decode round-trips for every
   constructor, wire-size properties (batching compresses), and decoder
   robustness against truncated or corrupt input. *)

module Msg = Dtx_net.Msg
module Op = Dtx_update.Op
module P = Dtx_xpath.Parser

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Structural equality, with operations compared through their canonical
   textual form (the form they ride the wire in). *)
let msg_equal a b =
  match (a, b) with
  | ( Msg.Op_ship { txn = t1; attempt = a1; seq = s1; ops = o1 },
      Msg.Op_ship { txn = t2; attempt = a2; seq = s2; ops = o2 } ) ->
    t1 = t2 && a1 = a2 && s1 = s2
    && List.length o1 = List.length o2
    && List.for_all2
         (fun (x : Msg.shipment) (y : Msg.shipment) ->
           x.Msg.s_index = y.Msg.s_index
           && x.Msg.s_doc = y.Msg.s_doc
           && Op.to_string x.Msg.s_op = Op.to_string y.Msg.s_op)
         o1 o2
  | a, b -> a = b

let ship ?(index = 0) doc text =
  match Op.parse text with
  | Ok op -> Msg.shipment ~index ~doc op
  | Error e -> Alcotest.failf "bad op %S: %s" text e

(* One representative value per constructor — every tag byte and field
   codec gets exercised. *)
let samples =
  [ Msg.Op_ship
      { txn = 42;
        attempt = 3;
        seq = 512;
        ops =
          [ ship "catalogue" "QUERY /products/product/name";
            ship ~index:1 "catalogue"
              "INSERT INTO /products <product><id>9</id></product>";
            ship ~index:2 "people" "REMOVE //person[id = \"12\"]";
            ship ~index:3 "people" "RENAME /people/person[1]/name TO title";
            ship ~index:4 "people"
              "CHANGE //person[id = \"4\"]/name TO \"Ana\"";
            ship ~index:5 "site" "TRANSPOSE //item[@id = \"i9\"] INTO /site/regions/europe"
          ] };
    Msg.Op_status
      { txn = 7; attempt = 0; seq = 1; granted = 2; status = Msg.Granted;
        result_bytes = 640 };
    Msg.Op_status
      { txn = 7; attempt = 1; seq = 2; granted = 0; status = Msg.Blocked;
        result_bytes = 0 };
    Msg.Op_status
      { txn = 8; attempt = 2; seq = 130; granted = 1; status = Msg.Deadlock;
        result_bytes = 0 };
    Msg.Op_status
      { txn = 9; attempt = 0; seq = 0; granted = 0;
        status = Msg.Failed "site unavailable"; result_bytes = 0 };
    Msg.Op_undo { txn = 11; op_index = 2; attempt = 4 };
    Msg.Prepare { txn = 13 };
    Msg.Vote { txn = 13; ok = true };
    Msg.Vote { txn = 13; ok = false };
    Msg.Commit { txn = 14 };
    Msg.Abort { txn = 15; quiet = false };
    Msg.Abort { txn = 15; quiet = true };
    Msg.End_ack { txn = 14; ok = true };
    Msg.Wake { txn = 16 };
    Msg.Wound { txn = 17 };
    Msg.Victim { txn = 18 };
    Msg.Outcome_query { txn = 19 };
    Msg.Outcome_reply { txn = 19; committed = true };
    Msg.Outcome_reply { txn = 20; committed = false };
    Msg.Wfg_request;
    Msg.Wfg_reply { edges = [] };
    Msg.Wfg_reply { edges = [ (1, 2); (2, 3); (300, 70000) ] } ]

let test_round_trip_every_constructor () =
  (* Every Kind appears among the samples. *)
  let kinds = List.map Msg.kind samples in
  List.iter
    (fun k ->
      checkb
        (Printf.sprintf "kind %s sampled" (Msg.Kind.to_string k))
        true (List.mem k kinds))
    Msg.Kind.all;
  List.iter
    (fun m ->
      match Msg.decode (Msg.encode m) with
      | Ok m' ->
        checkb
          (Format.asprintf "round-trip %a" Msg.pp m)
          true (msg_equal m m')
      | Error e -> Alcotest.failf "decode failed for %a: %s" Msg.pp m e)
    samples

(* [Msg.txn] over the samples, in order: every constructor but the
   detector's two serves the transaction its [txn] field names. *)
let test_txn_every_constructor () =
  let expected =
    [ Some 42; Some 7; Some 7; Some 8; Some 9; Some 11; Some 13; Some 13;
      Some 13; Some 14; Some 15; Some 15; Some 14; Some 16; Some 17; Some 18;
      Some 19; Some 19; Some 20; None; None; None ]
  in
  check_int "one expectation per sample" (List.length samples)
    (List.length expected);
  List.iter2
    (fun m want ->
      Alcotest.(check (option int)) (Format.asprintf "txn %a" Msg.pp m) want
        (Msg.txn m);
      checkb
        (Format.asprintf "None exactly for the detector's messages: %a" Msg.pp
           m)
        (want = None)
        (match Msg.kind m with
        | Msg.Kind.Wfg_request | Msg.Kind.Wfg_reply -> true
        | _ -> false))
    samples expected

let test_kind_index_dense () =
  check_int "count" (List.length Msg.Kind.all) Msg.Kind.count;
  let seen = Array.make Msg.Kind.count false in
  List.iter
    (fun k ->
      let i = Msg.Kind.index k in
      checkb "in range" true (i >= 0 && i < Msg.Kind.count);
      checkb "no collision" false seen.(i);
      seen.(i) <- true)
    Msg.Kind.all

let test_size_includes_result_payload () =
  let base =
    Msg.Op_status
      { txn = 1; attempt = 0; seq = 1; granted = 1; status = Msg.Granted;
        result_bytes = 0 }
  in
  let loaded =
    Msg.Op_status
      { txn = 1; attempt = 0; seq = 1; granted = 1; status = Msg.Granted;
        result_bytes = 512 }
  in
  (* The modelled result payload is charged on top of the encoding. *)
  checkb "payload charged" true (Msg.size loaded >= Msg.size base + 512)

let test_batched_shipment_smaller_than_singles () =
  let ops =
    [ ship ~index:0 "catalogue" "QUERY /products/product/name";
      ship ~index:1 "catalogue" "QUERY /products/product/price";
      ship ~index:2 "catalogue" "REMOVE //product[id = \"2\"]" ]
  in
  let batched =
    Msg.size (Msg.Op_ship { txn = 5; attempt = 0; seq = 1; ops })
  in
  let singles =
    List.fold_left
      (fun acc op ->
        acc
        + Msg.size (Msg.Op_ship { txn = 5; attempt = 0; seq = 1; ops = [ op ] }))
      0 ops
  in
  checkb
    (Printf.sprintf "batched (%dB) < singles (%dB)" batched singles)
    true (batched < singles)

(* [size] is computed arithmetically (no encoding) on the dispatch hot
   path; pin it to the ground truth for every constructor. *)
let test_size_matches_encoding () =
  List.iter
    (fun m ->
      let payload =
        match m with
        | Msg.Op_status { result_bytes; _ } -> result_bytes
        | _ -> 0
      in
      check_int
        (Format.asprintf "size %a" Msg.pp m)
        (String.length (Msg.encode m) + payload)
        (Msg.size m))
    samples

let test_decode_rejects_garbage () =
  let expect_error label s =
    match Msg.decode s with
    | Ok m -> Alcotest.failf "%s: decoded to %a" label Msg.pp m
    | Error _ -> ()
  in
  expect_error "empty" "";
  expect_error "unknown tag" "\xff";
  (* Truncations of a real message must not decode. *)
  let enc = Msg.encode (List.hd samples) in
  for len = 0 to String.length enc - 1 do
    expect_error (Printf.sprintf "truncated at %d" len) (String.sub enc 0 len)
  done;
  (* Trailing junk after a complete message is an error, not ignored. *)
  expect_error "trailing bytes" (Msg.encode Msg.Wfg_request ^ "x")

let test_kind_names () =
  check_str "op_ship" "op_ship" (Msg.Kind.to_string Msg.Kind.Op_ship);
  check_str "wfg_reply" "wfg_reply" (Msg.Kind.to_string Msg.Kind.Wfg_reply);
  let names = List.map Msg.Kind.to_string Msg.Kind.all in
  check_int "names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "msg"
    [ ( "codec",
        [ Alcotest.test_case "round-trip every constructor" `Quick
            test_round_trip_every_constructor;
          Alcotest.test_case "txn every constructor" `Quick
            test_txn_every_constructor;
          Alcotest.test_case "kind index dense" `Quick test_kind_index_dense;
          Alcotest.test_case "kind names" `Quick test_kind_names ] );
      ( "sizes",
        [ Alcotest.test_case "result payload charged" `Quick
            test_size_includes_result_payload;
          Alcotest.test_case "batching compresses" `Quick
            test_batched_shipment_smaller_than_singles;
          Alcotest.test_case "arithmetic size matches encoding" `Quick
            test_size_matches_encoding ] );
      ( "robustness",
        [ Alcotest.test_case "garbage rejected" `Quick
            test_decode_rejects_garbage ] ) ]
