(* Tests for the simulated network: latency model, ordering and counters,
   all through [Net.dispatch] and a registered handler. Message loss is a
   fault-plan concern, tested with the injector in [test_fault]. *)

module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

let test_latency_model () =
  let sim = Sim.create () in
  let net = Net.of_config ~sim
      { Net.Config.base_latency_ms = 1.0; per_kb_ms = 2.0 } in
  checkf "local free" 0.0 (Net.latency net ~src:1 ~dst:1 ~bytes:4096);
  checkf "base only" 1.0 (Net.latency net ~src:0 ~dst:1 ~bytes:0);
  checkf "base + size" 3.0 (Net.latency net ~src:0 ~dst:1 ~bytes:1024)

(* A network whose handler logs every delivery as (dst, txn, clock); a
   [Commit { txn }] carries the label a test orders by. *)
let logged ?(config = Net.Config.lan) () =
  let sim = Sim.create () in
  let net = Net.of_config ~sim config in
  let log = ref [] in
  Net.set_handler net (fun ~src:_ ~dst msg ->
      log := (dst, Option.value (Msg.txn msg) ~default:(-1), Sim.now sim) :: !log);
  (sim, net, log)

let commit txn = Msg.Commit { txn }

(* A message a few KiB long, labelled [-1] in the log. *)
let big = Msg.Wfg_reply { edges = List.init 500 (fun i -> (i, i + 1)) }

let test_delivery_time () =
  let sim, net, log =
    logged ~config:{ Net.Config.base_latency_ms = 0.5; per_kb_ms = 0.0 } ()
  in
  Net.dispatch net ~src:0 ~dst:1 (commit 1);
  Sim.run sim;
  Alcotest.(check (list (triple int int (float 1e-9))))
    "delivered after base latency" [ (1, 1, 0.5) ] !log

let test_local_delivery_still_async () =
  (* src = dst delivers through the event queue (causal ordering), at the
     current time. *)
  let sim, net, log = logged () in
  Net.dispatch net ~src:0 ~dst:0 (commit 1);
  check "dispatch returns before delivery" 0 (List.length !log);
  Sim.run sim;
  Alcotest.(check (list (triple int int (float 1e-9))))
    "delivered at the send time" [ (0, 1, 0.0) ] !log

let test_counters () =
  let _, net, _ = logged () in
  Net.dispatch net ~src:0 ~dst:1 (commit 1);
  Net.dispatch net ~src:1 ~dst:2 big;
  Net.dispatch net ~src:2 ~dst:2 big;
  check "remote messages" 2 (Net.messages net);
  check "bytes" (Msg.size (commit 1) + Msg.size big) (Net.bytes_sent net);
  Alcotest.(check (list (pair string int))) "per-kind sends"
    [ ("commit", 1); ("wfg_reply", 1) ]
    (List.map
       (fun r -> (Msg.Kind.to_string r.Net.t_kind, r.Net.t_sent))
       (Net.traffic net))

let test_fifo_per_link () =
  (* Messages of the same size on the same link arrive in send order. *)
  let sim, net, log = logged () in
  for i = 1 to 5 do
    Net.dispatch net ~src:0 ~dst:1 (commit i)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "in order" [ 5; 4; 3; 2; 1 ]
    (List.map (fun (_, txn, _) -> txn) !log)

let test_bigger_messages_slower () =
  let sim, net, log =
    logged ~config:{ Net.Config.base_latency_ms = 0.1; per_kb_ms = 1.0 } ()
  in
  checkb "big is big" true (Msg.size big > 1024);
  Net.dispatch net ~src:0 ~dst:1 big;
  Net.dispatch net ~src:0 ~dst:1 (commit 1);
  Sim.run sim;
  Alcotest.(check (list int)) "small overtakes big" [ -1; 1 ]
    (List.map (fun (_, txn, _) -> txn) !log)

let test_profiles () =
  let sim = Sim.create () in
  let lan = Net.of_config ~sim Net.Config.lan in
  let wan = Net.of_config ~sim Net.Config.wan in
  checkb "wan slower" true
    (Net.latency wan ~src:0 ~dst:1 ~bytes:1024
     > Net.latency lan ~src:0 ~dst:1 ~bytes:1024);
  let custom = Net.of_config ~sim (Net.Config.with_base_latency_ms 1.0 Net.Config.wan) in
  checkb "override wins" true
    (Net.latency custom ~src:0 ~dst:1 ~bytes:0 < 2.0)

let () =
  Alcotest.run "net"
    [ ( "net",
        [ Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "delivery time" `Quick test_delivery_time;
          Alcotest.test_case "local async" `Quick test_local_delivery_still_async;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
          Alcotest.test_case "size-dependent" `Quick test_bigger_messages_slower ] );
      ( "profiles+loss",
        [ Alcotest.test_case "profiles" `Quick test_profiles ] ) ]
