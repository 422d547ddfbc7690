module Protocol = Dtx_protocol.Protocol
module Allocation = Dtx_frag.Allocation

type series = {
  label : string;
  points : (float * float) list;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

let protocols = [ (Protocol.xdgl, "DTX (XDGL)"); (Protocol.node2pl, "DTX/Node2PL") ]

let base_params quick =
  if quick then
    { Workload.default_params with
      n_clients = 10;
      base_size_mb = 8.0;
      n_sites = 3 }
  else Workload.default_params

let mean_response r = r.Workload.response.Dtx_util.Stats.mean

(* One run per protocol and x value: [set p x] moves one parameter of [p]
   to [x]. Returns each protocol's label with its (x, result) points. *)
let sweep (p0 : Workload.params) xs set =
  List.map
    (fun (kind, label) ->
      ( label,
        List.map
          (fun x -> (x, Workload.run (set { p0 with protocol = kind } x)))
          xs ))
    protocols

let figure ~id ~title ~xlabel ~ylabel y runs =
  { id; title; xlabel; ylabel;
    series =
      List.map
        (fun (label, points) ->
          { label; points = List.map (fun (x, r) -> (x, y r)) points })
        runs }

(* Figs. 10 and 11: response time and deadlock aborts over one sweep. *)
let response_and_deadlocks ~quick ~id ~fig ~versus ~xlabel xs set =
  let runs = sweep (base_params quick) xs set in
  [ figure ~id:(id ^ "-response")
      ~title:(Printf.sprintf "%s — response time vs %s" fig versus)
      ~xlabel ~ylabel:"mean response time (ms)" mean_response runs;
    figure ~id:(id ^ "-deadlocks")
      ~title:(Printf.sprintf "%s — deadlocks vs %s" fig versus)
      ~xlabel ~ylabel:"deadlock aborts"
      (fun r -> float_of_int r.Workload.deadlocks)
      runs ]

(* ------------------------------------------------------------------ *)

let fig9 ~quick =
  let clients = if quick then [ 4.; 8.; 12. ] else [ 10.; 20.; 30.; 40.; 50. ] in
  let make_fig replication rep_name =
    let p0 = { (base_params quick) with update_txn_pct = 0; replication } in
    figure ~id:("fig9-" ^ rep_name)
      ~title:
        (Printf.sprintf "Fig. 9 — response time vs clients (%s replication)"
           rep_name)
      ~xlabel:"clients" ~ylabel:"mean response time (ms)" mean_response
      (sweep p0 clients (fun p n -> { p with n_clients = int_of_float n }))
  in
  [ make_fig Allocation.Total "total";
    make_fig (Allocation.Partial { copies = 1 }) "partial" ]

let fig10 ~quick =
  response_and_deadlocks ~quick ~id:"fig10" ~fig:"Fig. 10"
    ~versus:"update percentage" ~xlabel:"update transactions (%)"
    (if quick then [ 20.; 40.; 60. ] else [ 20.; 30.; 40.; 50.; 60. ])
    (fun p pct -> { p with update_txn_pct = int_of_float pct })

let fig11a ~quick =
  response_and_deadlocks ~quick ~id:"fig11a" ~fig:"Fig. 11(a)"
    ~versus:"base size" ~xlabel:"base size (MB)"
    (if quick then [ 10.; 20.; 40. ] else [ 50.; 100.; 150.; 200. ])
    (fun p mb -> { p with base_size_mb = mb })

let fig11b ~quick =
  response_and_deadlocks ~quick ~id:"fig11b" ~fig:"Fig. 11(b)"
    ~versus:"number of sites" ~xlabel:"sites"
    (if quick then [ 2.; 4. ] else [ 2.; 4.; 6.; 8. ])
    (fun p n -> { p with n_sites = int_of_float n })

let fig12 ~quick =
  let p0 = base_params quick in
  let runs =
    List.map
      (fun (kind, label) -> (label, Workload.run { p0 with protocol = kind }))
      protocols
  in
  [ { id = "fig12-throughput";
      title = "Fig. 12 — cumulative committed transactions over time";
      xlabel = "time (ms)";
      ylabel = "committed transactions";
      series =
        List.map
          (fun (label, r) -> { label; points = r.Workload.throughput })
          runs };
    { id = "fig12-concurrency";
      title = "Fig. 12 — concurrency degree over time";
      xlabel = "time (ms)";
      ylabel = "active transactions";
      series =
        List.map
          (fun (label, r) ->
            { label;
              points =
                List.map
                  (fun (t, n) -> (t, float_of_int n))
                  r.Workload.concurrency })
          runs } ]

(* ------------------------------------------------------------------ *)

let pp_figure ppf (f : figure) =
  Format.fprintf ppf "@[<v>== %s ==@ (%s vs %s)@ " f.title f.ylabel f.xlabel;
  Format.fprintf ppf "%-12s" f.xlabel;
  List.iter (fun s -> Format.fprintf ppf " %20s" s.label) f.series;
  Format.fprintf ppf "@ ";
  (* Rows keyed by the union of x values, in order. *)
  let xs =
    List.concat_map (fun s -> List.map fst s.points) f.series
    |> List.sort_uniq compare
  in
  let xs =
    (* Timeline figures can have hundreds of points; subsample for print. *)
    let n = List.length xs in
    if n <= 30 then xs
    else
      let step = (n + 29) / 30 in
      List.filteri (fun i _ -> i mod step = 0 || i = n - 1) xs
  in
  List.iter
    (fun x ->
      Format.fprintf ppf "%-12.1f" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Format.fprintf ppf " %20.2f" y
          | None -> Format.fprintf ppf " %20s" "-")
        f.series;
      Format.fprintf ppf "@ ")
    xs;
  let chart =
    Dtx_util.Chart.render ~xlabel:f.xlabel ~ylabel:f.ylabel
      (List.map (fun s -> (s.label, s.points)) f.series)
  in
  Format.fprintf ppf "@ ";
  List.iter
    (fun line -> Format.fprintf ppf "%s@ " line)
    (String.split_on_char '\n' chart);
  Format.fprintf ppf "@]"

let to_csv (f : figure) =
  let buf = Buffer.create 1024 in
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  Buffer.add_string buf (quote f.xlabel);
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (quote s.label))
    f.series;
  Buffer.add_char buf '\n';
  let xs =
    List.concat_map (fun s -> List.map fst s.points) f.series
    |> List.sort_uniq compare
  in
  List.iter
    (fun x ->
      Buffer.add_string buf (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match List.assoc_opt x s.points with
          | Some y -> Buffer.add_string buf (Printf.sprintf "%g" y)
          | None -> ())
        f.series;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

let write_csv ~dir (f : figure) =
  let path = Filename.concat dir (f.id ^ ".csv") in
  Out_channel.with_open_text path (fun oc -> output_string oc (to_csv f));
  path

(* ------------------------------------------------------------------ *)

let mean_points s =
  match s.points with
  | [] -> 0.0
  | pts -> List.fold_left (fun a (_, y) -> a +. y) 0.0 pts /. float_of_int (List.length pts)

(* Mean y of a figure's XDGL and Node2PL series ([protocols] order). *)
let xdgl_vs_node2pl f =
  match f.series with
  | [ x; n ] -> (mean_points x, mean_points n)
  | _ -> invalid_arg "Experiments.xdgl_vs_node2pl"

(* The paper's qualitative claims, checked against fresh runs of Figs. 9, 10
   and 12 — the EXPERIMENTS.md evidence. [true] iff every row is OK. *)
let summary ~quick ppf =
  let all_ok = ref true in
  let row fig check expectation observed ok =
    if not ok then all_ok := false;
    Format.fprintf ppf "%-18s %-32s %-36s %s -> %s@." fig check expectation
      observed
      (if ok then "OK" else "MISMATCH")
  in
  let faster fig (x, n) =
    row fig "XDGL < Node2PL" "XDGL responds faster"
      (Printf.sprintf "%.1f vs %.1f ms" x n)
      (x < n)
  in
  Format.fprintf ppf "== Qualitative checks against the paper ==@.";
  let total, partial =
    match fig9 ~quick with
    | [ t; p ] -> (xdgl_vs_node2pl t, xdgl_vs_node2pl p)
    | _ -> invalid_arg "Experiments.summary"
  in
  faster "Fig9/total" total;
  faster "Fig9/partial" partial;
  row "Fig9/replication" "partial < total" "partial replication is faster"
    (Printf.sprintf "%.1f vs %.1f ms" (fst partial) (fst total))
    (fst partial < fst total);
  (match fig10 ~quick with
   | [ resp; dls ] ->
     let x, n = xdgl_vs_node2pl resp in
     row "Fig10/response" "XDGL < Node2PL under updates" "XDGL stays low"
       (Printf.sprintf "%.1f vs %.1f ms" x n)
       (x < n);
     let x, n = xdgl_vs_node2pl dls in
     row "Fig10/deadlocks" "XDGL >= Node2PL" "finer locks -> more deadlocks"
       (Printf.sprintf "%.1f vs %.1f" x n)
       (x >= n)
   | _ -> invalid_arg "Experiments.summary");
  (match fig12 ~quick with
   | { series = [ x; n ]; _ } :: _ ->
     let last s = match List.rev s.points with p :: _ -> p | [] -> (0., 0.) in
     let (tx, cx), (tn, cn) = (last x, last n) in
     row "Fig12/throughput" "XDGL finishes earlier" "XDGL completes first"
       (Printf.sprintf
          "XDGL: %.0f txns by %.0f ms; Node2PL: %.0f txns by %.0f ms (%.1fx)"
          cx tx cn tn (tn /. tx))
       (tx < tn)
   | _ -> invalid_arg "Experiments.summary");
  !all_ok

(* ------------------------------------------------------------------ *)

(* An aligned text table with one row per case, followed by a blank line;
   every column is as wide as its widest cell. *)
let pp_table ppf title header cases row =
  let rows = List.map row cases in
  let widths =
    List.fold_left
      (List.map2 (fun w cell -> max w (String.length cell)))
      (List.map String.length header) rows
  in
  let line cells =
    String.concat "  " (List.map2 (Printf.sprintf "%-*s") widths cells)
  in
  Format.fprintf ppf "== %s ==@." title;
  List.iter
    (fun cells -> Format.fprintf ppf "%s@." (String.trim (line cells)))
    (header :: rows);
  Format.fprintf ppf "@."

(* Design-choice ablations around the paper's defaults (20 clients, 16 MB):
   detection period, protocol, retries, seed sensitivity, deadlock policy,
   commit protocol, LAN vs WAN and replica count. *)
let ablation ppf =
  let base = { Workload.default_params with n_clients = 20; base_size_mb = 16.0 } in
  let ms = Printf.sprintf "%.1f" and int = string_of_int in
  let mean r = ms (mean_response r) in
  pp_table ppf "Ablation: deadlock-detection period"
    [ "period(ms)"; "mean(ms)"; "deadlocks"; "committed" ]
    [ 10.0; 40.0; 160.0; 640.0 ]
    (fun period ->
      let r = Workload.run { base with deadlock_period_ms = period } in
      [ Printf.sprintf "%.0f" period; mean r; int r.Workload.deadlocks;
        int r.Workload.committed ]);
  pp_table ppf "Ablation: protocol (incl. Doc2PL full-document locking)"
    [ "protocol"; "mean(ms)"; "deadlocks"; "committed"; "lock reqs" ]
    [ Protocol.xdgl; Protocol.node2pl; Protocol.doc2pl; Protocol.tadom;
      Protocol.xdgl_value ]
    (fun kind ->
      let r = Workload.run { base with protocol = kind } in
      [ Protocol.kind_to_string kind; mean r; int r.Workload.deadlocks;
        int r.Workload.committed; int r.Workload.lock_requests ]);
  pp_table ppf "Ablation: client retries after abort"
    [ "retries"; "committed"; "not-exec"; "makespan(ms)" ]
    [ 0; 1; 3 ]
    (fun retries ->
      let r = Workload.run { base with retries; update_txn_pct = 40 } in
      [ int retries; int r.Workload.committed; int r.Workload.not_executed;
        ms r.Workload.makespan_ms ]);
  pp_table ppf "Seed sensitivity (3 seeds per configuration)"
    [ "configuration"; "seeds"; "mean(ms)"; "sd"; "deadlocks"; "sd";
      "committed"; "makespan(ms)" ]
    [ ("XDGL/20%upd", base);
      ("Node2PL/20%upd", { base with protocol = Protocol.node2pl });
      ("XDGL/40%upd", { base with update_txn_pct = 40 }) ]
    (fun (label, p) ->
      let a = Workload.run_many p in
      let resp = a.Workload.mean_response in
      [ label; int (List.length a.Workload.runs); ms resp.Dtx_util.Stats.mean;
        ms resp.Dtx_util.Stats.stddev; ms a.Workload.mean_deadlocks;
        ms a.Workload.sd_deadlocks; ms a.Workload.mean_committed;
        ms a.Workload.mean_makespan ]);
  pp_table ppf "Ablation: deadlock policy (paper future work: deadlock study)"
    [ "policy"; "mean(ms)"; "dl aborts"; "makespan"; "committed" ]
    [ ("detection", Dtx.Site.Detection); ("wait-die", Dtx.Site.Wait_die);
      ("wound-wait", Dtx.Site.Wound_wait) ]
    (fun (name, policy) ->
      let r =
        Workload.run { base with deadlock_policy = policy; update_txn_pct = 40 }
      in
      [ name; mean r; int r.Workload.deadlocks; ms r.Workload.makespan_ms;
        int r.Workload.committed ]);
  let commits =
    List.map
      (fun (name, two_phase) ->
        (name, Workload.run { base with two_phase_commit = two_phase }))
      [ ("1-phase", false); ("2-phase", true) ]
  in
  pp_table ppf "Ablation: commit protocol (paper future work: atomicity via 2PC)"
    [ "commit"; "mean(ms)"; "makespan"; "messages"; "net bytes" ]
    commits
    (fun (name, r) ->
      [ name; mean r; ms r.Workload.makespan_ms; int r.Workload.messages;
        int r.Workload.net_bytes ]);
  (* Per-message-type traffic: where the extra 2PC round shows up. *)
  List.iter
    (fun (name, r) ->
      pp_table ppf (name ^ " traffic by message type")
        [ "message"; "sent"; "dropped"; "bytes" ]
        r.Workload.traffic
        (fun (t : Dtx_net.Net.traffic) ->
          [ Dtx_net.Msg.Kind.to_string t.t_kind; int t.t_sent;
            int t.t_dropped; int t.t_bytes ]))
    commits;
  pp_table ppf "Ablation: LAN vs WAN (paper future work: WAN environments)"
    [ "link"; "mean(ms)"; "p95(ms)"; "makespan"; "deadlocks" ]
    [ ("lan", Dtx_net.Net.Config.lan); ("wan", Dtx_net.Net.Config.wan) ]
    (fun (name, net_config) ->
      let r = Workload.run { base with net_config } in
      [ name; mean r; ms r.Workload.response.Dtx_util.Stats.p95;
        ms r.Workload.makespan_ms; int r.Workload.deadlocks ]);
  pp_table ppf "Ablation: replica copies under partial replication"
    [ "copies"; "mean(ms)"; "messages"; "committed" ]
    [ 1; 2; 3 ]
    (fun copies ->
      let r =
        Workload.run { base with replication = Allocation.Partial { copies } }
      in
      [ int copies; mean r; int r.Workload.messages; int r.Workload.committed ])

(* ------------------------------------------------------------------ *)

(* A report returns [false] when one of its checks fails. *)
type target =
  | Figures of (quick:bool -> figure list)
  | Report of (quick:bool -> Format.formatter -> bool)

let all ~quick =
  fig9 ~quick @ fig10 ~quick @ fig11a ~quick @ fig11b ~quick @ fig12 ~quick

let targets =
  [ ("fig9", Figures fig9); ("fig10", Figures fig10);
    ("fig11a", Figures fig11a); ("fig11b", Figures fig11b);
    ("fig12", Figures fig12); ("all", Figures all);
    ("summary", Report summary);
    ("ablation", Report (fun ~quick:_ ppf -> ablation ppf; true)) ]

let run ?export ~quick ppf = function
  | Figures driver ->
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      export;
    List.iter
      (fun f ->
        Format.fprintf ppf "%a@.@." pp_figure f;
        Option.iter
          (fun dir -> Format.fprintf ppf "[wrote %s]@." (write_csv ~dir f))
          export)
      (driver ~quick);
    true
  | Report report -> report ~quick ppf
