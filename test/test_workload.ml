(* Tests for the DTXTester workload harness and the experiment drivers. *)

module Workload = Dtx_workload.Workload
module Experiments = Dtx_workload.Experiments
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Stats = Dtx_util.Stats

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small =
  { Workload.default_params with
    n_clients = 6;
    txns_per_client = 3;
    base_size_mb = 6.0;
    n_sites = 3 }

let test_accounting () =
  let r = Workload.run small in
  check "planned" 18 r.Workload.planned_txns;
  check "every planned txn accounted" r.Workload.planned_txns
    (r.Workload.committed + r.Workload.not_executed);
  checkb "most commit" true (r.Workload.committed >= 12);
  check "response samples = committed" r.Workload.committed
    r.Workload.response.Stats.count;
  checkb "makespan covers responses" true
    (r.Workload.makespan_ms >= r.Workload.response.Stats.max);
  checkb "messages flowed" true (r.Workload.messages > 0);
  checkb "locks processed" true (r.Workload.lock_requests > 0)

let test_throughput_cumulative () =
  let r = Workload.run small in
  let ys = List.map snd r.Workload.throughput in
  checkb "non-decreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ys - 1) ys)
       (List.tl ys));
  (match List.rev ys with
   | last :: _ ->
     check "cumulative total = committed" r.Workload.committed
       (int_of_float last)
   | [] -> Alcotest.fail "empty throughput")

let test_concurrency_samples () =
  let r = Workload.run small in
  checkb "has samples" true (List.length r.Workload.concurrency > 2);
  (* Starts by ramping up to n_clients, ends at 0. *)
  let _, last = List.nth r.Workload.concurrency (List.length r.Workload.concurrency - 1) in
  check "drains to zero" 0 last;
  let peak = List.fold_left (fun a (_, n) -> max a n) 0 r.Workload.concurrency in
  checkb "peak reaches client count" true (peak >= small.Workload.n_clients)

let test_deterministic () =
  let strip r = (r.Workload.committed, r.Workload.aborted, r.Workload.deadlocks,
                 r.Workload.response.Stats.mean, r.Workload.makespan_ms,
                 r.Workload.messages, r.Workload.lock_requests) in
  checkb "same seed, same result" true
    (strip (Workload.run small) = strip (Workload.run small));
  checkb "different seed differs" true
    (strip (Workload.run small) <> strip (Workload.run { small with seed = 1234 }))

let test_retries_resubmit () =
  (* Retrying aborted transactions resubmits them (more transactions enter
     the system); accounting must stay exact either way. Whether retries
     raise the completion count is workload-dependent — a retried victim is
     always the youngest transaction again, so under the paper's
     abort-newest rule it can keep losing (the deadlock behaviour the paper
     flags for further study). *)
  let p = { small with update_txn_pct = 60; n_clients = 12 } in
  let r0 = Workload.run { p with retries = 0 } in
  let r3 = Workload.run { p with retries = 3 } in
  check "accounting r0" r0.Workload.planned_txns
    (r0.Workload.committed + r0.Workload.not_executed);
  check "accounting r3" r3.Workload.planned_txns
    (r3.Workload.committed + r3.Workload.not_executed);
  checkb "retries resubmit aborted txns" true
    (r3.Workload.aborted >= r0.Workload.aborted
     || r3.Workload.not_executed <= r0.Workload.not_executed)

let test_protocols_all_run () =
  List.iter
    (fun kind ->
      let r = Workload.run { small with protocol = kind } in
      checkb (Protocol.kind_to_string kind ^ " commits") true (r.Workload.committed > 0))
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl ]

let test_paper_headline_shape () =
  (* XDGL responds faster than Node2PL on the read-only workload, in both
     replication modes; partial beats total. *)
  let ro = { small with update_txn_pct = 0; n_clients = 10 } in
  let mean p = (Workload.run p).Workload.response.Stats.mean in
  let xdgl_partial = mean ro in
  let node2pl_partial = mean { ro with protocol = Protocol.node2pl } in
  let xdgl_total = mean { ro with replication = Allocation.Total } in
  checkb "XDGL < Node2PL" true (xdgl_partial < node2pl_partial);
  checkb "partial < total" true (xdgl_partial < xdgl_total)

let test_total_replication_more_messages () =
  let ro = { small with update_txn_pct = 0 } in
  let partial = Workload.run ro in
  let total = Workload.run { ro with replication = Allocation.Total } in
  checkb "total replication costs messages" true
    (total.Workload.messages > partial.Workload.messages)

let test_structure_nodes_by_protocol () =
  let x = Workload.run small in
  let n = Workload.run { small with protocol = Protocol.node2pl } in
  checkb "dataguide smaller than document structure" true
    (x.Workload.structure_nodes < n.Workload.structure_nodes)

let test_run_many () =
  let a = Workload.run_many ~seeds:[ 3; 4 ] small in
  check "two runs" 2 (List.length a.Workload.runs);
  check "summary count" 2 a.Workload.mean_response.Stats.count;
  checkb "means positive" true
    (a.Workload.mean_response.Stats.mean > 0.0 && a.Workload.mean_committed > 0.0)

let test_invalid_params () =
  Alcotest.check_raises "no clients" (Invalid_argument "Workload.run") (fun () ->
      ignore (Workload.run { small with n_clients = 0 }))

(* --- experiment drivers --------------------------------------------------- *)

let test_fig_drivers_shape () =
  let figs = Experiments.fig10 ~quick:true in
  check "fig10 -> two charts" 2 (List.length figs);
  List.iter
    (fun (f : Experiments.figure) ->
      check (f.Experiments.id ^ " series") 2 (List.length f.Experiments.series);
      List.iter
        (fun (s : Experiments.series) ->
          checkb "points present" true (List.length s.Experiments.points >= 2))
        f.Experiments.series)
    figs

let test_fig12_driver () =
  let figs = Experiments.fig12 ~quick:true in
  check "two charts" 2 (List.length figs);
  let tp = List.hd figs in
  List.iter
    (fun (s : Experiments.series) ->
      let ys = List.map snd s.Experiments.points in
      checkb "cumulative non-decreasing" true
        (fst
           (List.fold_left (fun (ok, prev) y -> (ok && y >= prev, y)) (true, 0.0) ys)))
    tp.Experiments.series

let test_csv_export () =
  let figs = Experiments.fig10 ~quick:true in
  let f = List.hd figs in
  let csv = Experiments.to_csv f in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check "header + one row per x" (1 + 3) (List.length lines);
  checkb "header has both series" true
    (let h = List.hd lines in
     String.length h > 10
     && String.split_on_char ',' h |> List.length = 3)

let test_pp_figure_renders () =
  let figs = Experiments.fig10 ~quick:true in
  List.iter
    (fun f ->
      let s = Format.asprintf "%a" Experiments.pp_figure f in
      checkb "non-empty" true (String.length s > 40))
    figs

let () =
  Alcotest.run "workload"
    [ ( "runs",
        [ Alcotest.test_case "accounting" `Quick test_accounting;
          Alcotest.test_case "throughput cumulative" `Quick test_throughput_cumulative;
          Alcotest.test_case "concurrency samples" `Quick test_concurrency_samples;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "retries" `Quick test_retries_resubmit;
          Alcotest.test_case "all protocols" `Quick test_protocols_all_run;
          Alcotest.test_case "run_many" `Quick test_run_many;
          Alcotest.test_case "invalid params" `Quick test_invalid_params ] );
      ( "paper shapes",
        [ Alcotest.test_case "headline ordering" `Slow test_paper_headline_shape;
          Alcotest.test_case "replication messages" `Quick
            test_total_replication_more_messages;
          Alcotest.test_case "structure sizes" `Quick test_structure_nodes_by_protocol ] );
      ( "experiments",
        [ Alcotest.test_case "fig drivers" `Slow test_fig_drivers_shape;
          Alcotest.test_case "fig12" `Slow test_fig12_driver;
          Alcotest.test_case "pp_figure" `Slow test_pp_figure_renders;
          Alcotest.test_case "csv export" `Slow test_csv_export ] ) ]
