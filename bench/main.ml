(* Benchmark & experiment harness.

   Usage:
     dune exec bench/main.exe                 # all paper figures (full size)
     dune exec bench/main.exe -- quick        # all figures, reduced scale
     dune exec bench/main.exe -- fig9 … fig12 # individual figures
     dune exec bench/main.exe -- summary      # qualitative checks table
     dune exec bench/main.exe -- micro        # Bechamel microbenchmarks
     dune exec bench/main.exe -- micro smoke  # same, tiny quota (make check)
     dune exec bench/main.exe -- ablation     # design-choice ablations
     dune exec bench/main.exe -- fig9 export  # also write results/<fig>.csv *)

module Experiments = Dtx_workload.Experiments
module Workload = Dtx_workload.Workload
module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation
module Generator = Dtx_xmark.Generator
module Dataguide = Dtx_dataguide.Dataguide
module Queries = Dtx_xmark.Queries
module Eval = Dtx_xpath.Eval
module Xparser = Dtx_xpath.Parser
module Table = Dtx_locks.Table
module Mode = Dtx_locks.Mode
module Wfg = Dtx_locks.Wfg
module Rng = Dtx_util.Rng

let ppf = Format.std_formatter

let export_dir = ref None

let print_figures figs =
  List.iter
    (fun f ->
      Format.fprintf ppf "%a@.@." Experiments.pp_figure f;
      match !export_dir with
      | Some dir ->
        let path = Experiments.write_csv ~dir f in
        Format.fprintf ppf "[wrote %s]@." path
      | None -> ())
    figs

let run_figure ~quick name =
  match Experiments.named name with
  | Some driver -> print_figures (driver ~quick)
  | None -> Format.fprintf ppf "unknown figure %s@." name

let summary ~quick =
  Format.fprintf ppf "== Qualitative checks against the paper ==@.";
  List.iter
    (fun (fig, check, expect, observed) ->
      Format.fprintf ppf "%-18s %-32s %-36s %s@." fig check expect observed)
    (Experiments.summary_table ~quick ())

(* --- Bechamel microbenchmarks ------------------------------------------ *)

(* [smoke] shrinks the measurement quota so `make check` can exercise every
   perf-path case in well under a second; the numbers it produces are noisy
   and only the absence of crashes matters. *)
let microbench_results ~smoke =
  let open Bechamel in
  let open Toolkit in
  let doc = Generator.generate (Generator.params_of_mb 4.0) in
  let dg = Dataguide.build doc in
  let q = Xparser.parse "/site/regions/*/item/name" in
  let q_pred = Xparser.parse "/site/people/person[@id = \"p3\"]/name" in
  let rng = Rng.create 11 in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"dtx"
      [ mk "dataguide-build-4MB" (fun () -> ignore (Dataguide.build doc));
        mk "dataguide-match-path" (fun () -> ignore (Dataguide.match_path dg q));
        mk "xpath-eval-items" (fun () -> ignore (Eval.select doc q));
        mk "xpath-eval-predicate" (fun () -> ignore (Eval.select doc q_pred));
        (* Footprints are precomputed at submit time in the real pipeline
           (Coordinator.submit), so the staged closure measures only the
           acquire/release path: one long-lived table, prebuilt request
           lists. Each run leaves the table empty again. *)
        (let table = Table.create () in
         let footprints =
           Array.init 10 (fun t ->
               List.init 10 (fun i ->
                   (Table.resource "d" (((t + 1) * 100) + i), Mode.IS)))
         in
         mk "lock-acquire-release" (fun () ->
             for txn = 1 to 10 do
               ignore (Table.acquire_all table ~txn footprints.(txn - 1))
             done;
             for txn = 1 to 10 do
               ignore (Table.release_txn table ~txn)
             done));
        mk "wfg-cycle-detect-100" (fun () ->
            let g = Wfg.create () in
            for i = 0 to 99 do
              Wfg.add_wait g ~waiter:i ~holders:[ (i + 1) mod 100 ]
            done;
            ignore (Wfg.find_cycle g));
        mk "xmark-generate-1MB" (fun () ->
            ignore (Generator.generate (Generator.params_of_mb 1.0)));
        mk "workload-gen-query" (fun () -> ignore (Queries.gen_query rng doc));
        (* Uncached XDGL derivation: every call re-walks DataGuide targets,
           ancestors and predicate paths. *)
        mk "xdgl-lock-derivation" (fun () ->
            let module R = Dtx_protocol.Xdgl_rules in
            ignore (R.requests (R.guide_view dg) (Dtx_update.Op.Query q_pred)));
        (* Same derivation through Protocol.lock_requests, which memoizes on
           the DataGuide version — steady-state cache hits. *)
        (let p = Protocol.create Protocol.xdgl in
         Protocol.add_doc p doc;
         mk "xdgl-lock-derivation-cached" (fun () ->
             ignore
               (Protocol.lock_requests p ~doc:doc.Dtx_xml.Doc.name
                  (Dtx_update.Op.Query q_pred)))) ]
  in
  (* Two instances per run: wall time and minor-heap words — the second is
     the allocations-per-op column that tracks hot-path allocation work
     (a GC-pressure proxy the clock alone hides). *)
  let clock = Instance.monotonic_clock in
  let minor = Instance.minor_allocated in
  let quota = if smoke then 0.02 else 0.5 in
  let limit = if smoke then 50 else 1000 in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) () in
  let raw = Benchmark.all cfg [ clock; minor ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimates instance =
    let results = Analyze.all ols instance raw in
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some [ est ] -> (name, est) :: acc
        | _ -> acc)
      results []
  in
  let ns = estimates clock and words = estimates minor in
  List.map
    (fun (name, e) -> (name, Some e, List.assoc_opt name words))
    ns
  @ List.filter_map
      (fun (name, e) ->
        if List.mem_assoc name ns then None else Some (name, None, Some e))
      words
  |> List.sort compare

let microbenches ~smoke =
  let rows = microbench_results ~smoke in
  Format.fprintf ppf
    "== Microbenchmarks (monotonic clock ns/run, minor words/run%s) ==@."
    (if smoke then ", smoke quota" else "");
  let cell = function
    | Some est -> Printf.sprintf "%14.1f" est
    | None -> Printf.sprintf "%14s" "n/a"
  in
  List.iter
    (fun (name, ns, words) ->
      Format.fprintf ppf "%-34s %s %s@." name (cell ns) (cell words))
    rows

(* --- Ablations ---------------------------------------------------------- *)

let ablation () =
  let base = { Workload.default_params with n_clients = 20; base_size_mb = 16.0 } in
  Format.fprintf ppf "== Ablation: deadlock-detection period ==@.";
  Format.fprintf ppf "%-12s %-12s %-14s %-10s@." "period(ms)" "mean(ms)"
    "deadlocks" "committed";
  List.iter
    (fun period ->
      let r = Workload.run { base with deadlock_period_ms = period } in
      Format.fprintf ppf "%-12.0f %-12.1f %-14d %-10d@." period
        r.Workload.response.Dtx_util.Stats.mean r.Workload.deadlocks
        r.Workload.committed)
    [ 10.0; 40.0; 160.0; 640.0 ];
  Format.fprintf ppf "@.== Ablation: protocol (incl. Doc2PL full-document locking) ==@.";
  Format.fprintf ppf "%-12s %-12s %-14s %-10s %-12s@." "protocol" "mean(ms)"
    "deadlocks" "committed" "lock reqs";
  List.iter
    (fun kind ->
      let r = Workload.run { base with protocol = kind } in
      Format.fprintf ppf "%-12s %-12.1f %-14d %-10d %-12d@."
        (Protocol.kind_to_string kind) r.Workload.response.Dtx_util.Stats.mean
        r.Workload.deadlocks r.Workload.committed r.Workload.lock_requests)
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom;
      Protocol.xdgl_value ];
  Format.fprintf ppf "@.== Ablation: client retries after abort ==@.";
  Format.fprintf ppf "%-10s %-12s %-12s %-14s@." "retries" "committed"
    "not-exec" "makespan(ms)";
  List.iter
    (fun retries ->
      let r = Workload.run { base with retries; update_txn_pct = 40 } in
      Format.fprintf ppf "%-10d %-12d %-12d %-14.1f@." retries
        r.Workload.committed r.Workload.not_executed r.Workload.makespan_ms)
    [ 0; 1; 3 ];
  Format.fprintf ppf "@.== Seed sensitivity (3 seeds per configuration) ==@.";
  List.iter
    (fun (label, p) ->
      let a = Workload.run_many p in
      Format.fprintf ppf "%-22s %a@." label Workload.pp_aggregate a)
    [ ("XDGL/20%upd", base);
      ("Node2PL/20%upd", { base with protocol = Protocol.node2pl });
      ("XDGL/40%upd", { base with update_txn_pct = 40 }) ];
  Format.fprintf ppf "@.== Ablation: deadlock policy (paper future work: deadlock study) ==@.";
  Format.fprintf ppf "%-12s %-12s %-14s %-12s %-10s@." "policy" "mean(ms)"
    "dl aborts" "makespan" "committed";
  List.iter
    (fun (name, policy) ->
      let r =
        Workload.run { base with deadlock_policy = policy; update_txn_pct = 40 }
      in
      Format.fprintf ppf "%-12s %-12.1f %-14d %-12.1f %-10d@." name
        r.Workload.response.Dtx_util.Stats.mean r.Workload.deadlocks
        r.Workload.makespan_ms r.Workload.committed)
    [ ("detection", Dtx.Site.Detection); ("wait-die", Dtx.Site.Wait_die);
      ("wound-wait", Dtx.Site.Wound_wait) ];
  Format.fprintf ppf "@.== Ablation: commit protocol (paper future work: atomicity via 2PC) ==@.";
  Format.fprintf ppf "%-10s %-12s %-12s %-12s %-12s@." "commit" "mean(ms)"
    "makespan" "messages" "net bytes";
  let traffic_breakdowns =
    List.map
      (fun (name, two_phase) ->
        let r = Workload.run { base with two_phase_commit = two_phase } in
        Format.fprintf ppf "%-10s %-12.1f %-12.1f %-12d %-12d@." name
          r.Workload.response.Dtx_util.Stats.mean r.Workload.makespan_ms
          r.Workload.messages r.Workload.net_bytes;
        (name, r.Workload.traffic))
      [ ("1-phase", false); ("2-phase", true) ]
  in
  (* Per-message-type traffic: where the extra 2PC round shows up. *)
  List.iter
    (fun (name, traffic) ->
      Format.fprintf ppf "@.-- %s traffic by message type --@." name;
      Format.fprintf ppf "%-12s %8s %8s %10s@." "message" "sent" "dropped"
        "bytes";
      List.iter
        (fun (row : Dtx_net.Net.traffic) ->
          Format.fprintf ppf "%-12s %8d %8d %10d@."
            (Dtx_net.Msg.Kind.to_string row.Dtx_net.Net.t_kind)
            row.Dtx_net.Net.t_sent row.Dtx_net.Net.t_dropped
            row.Dtx_net.Net.t_bytes)
        traffic)
    traffic_breakdowns;
  Format.fprintf ppf "@.== Ablation: LAN vs WAN (paper future work: WAN environments) ==@.";
  Format.fprintf ppf "%-8s %-12s %-12s %-12s %-14s@." "link" "mean(ms)"
    "p95(ms)" "makespan" "deadlocks";
  List.iter
    (fun (name, profile) ->
      let r = Workload.run { base with net_config = profile } in
      Format.fprintf ppf "%-8s %-12.1f %-12.1f %-12.1f %-14d@." name
        r.Workload.response.Dtx_util.Stats.mean
        r.Workload.response.Dtx_util.Stats.p95 r.Workload.makespan_ms
        r.Workload.deadlocks)
    [ ("lan", Dtx_net.Net.Config.lan); ("wan", Dtx_net.Net.Config.wan) ];
  Format.fprintf ppf "@.== Ablation: replica copies under partial replication ==@.";
  Format.fprintf ppf "%-10s %-12s %-12s %-12s@." "copies" "mean(ms)"
    "messages" "committed";
  List.iter
    (fun copies ->
      let r =
        Workload.run
          { base with replication = Allocation.Partial { copies } }
      in
      Format.fprintf ppf "%-10d %-12.1f %-12d %-12d@." copies
        r.Workload.response.Dtx_util.Stats.mean r.Workload.messages
        r.Workload.committed)
    [ 1; 2; 3 ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let smoke = List.mem "smoke" args in
  if List.mem "export" args then export_dir := Some "results";
  let figure_args =
    List.filter
      (fun a ->
        a <> "quick" && a <> "summary" && a <> "micro" && a <> "ablation"
        && a <> "export" && a <> "smoke")
      args
  in
  let t0 = Unix.gettimeofday () in
  if
    figure_args = []
    && not
         (List.mem "summary" args || List.mem "micro" args
          || List.mem "ablation" args)
  then begin
    (* Default: everything the paper reports. *)
    print_figures (Experiments.all ~quick ());
    summary ~quick:true;
    ablation ()
  end
  else begin
    List.iter (run_figure ~quick) figure_args;
    if List.mem "summary" args then summary ~quick;
    if List.mem "micro" args then microbenches ~smoke;
    if List.mem "ablation" args then ablation ()
  end;
  Format.fprintf ppf "@.[bench completed in %.1f s]@." (Unix.gettimeofday () -. t0)
