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

(* ------------------------------------------------------------------ *)

let fig9 ?(quick = false) () =
  let p0 = base_params quick in
  let clients = if quick then [ 4; 8; 12 ] else [ 10; 20; 30; 40; 50 ] in
  let make_fig replication rep_name =
    let series =
      List.map
        (fun (kind, label) ->
          let points =
            List.map
              (fun n ->
                let r =
                  Workload.run
                    { p0 with
                      protocol = kind;
                      n_clients = n;
                      update_txn_pct = 0;
                      replication }
                in
                (float_of_int n, r.Workload.response.Dtx_util.Stats.mean))
              clients
          in
          { label; points })
        protocols
    in
    { id = "fig9-" ^ rep_name;
      title =
        Printf.sprintf "Fig. 9 — response time vs clients (%s replication)"
          rep_name;
      xlabel = "clients";
      ylabel = "mean response time (ms)";
      series }
  in
  [ make_fig Allocation.Total "total";
    make_fig (Allocation.Partial { copies = 1 }) "partial" ]

(* ------------------------------------------------------------------ *)

let fig10 ?(quick = false) () =
  let p0 = base_params quick in
  let pcts = if quick then [ 20; 40; 60 ] else [ 20; 30; 40; 50; 60 ] in
  let runs =
    List.map
      (fun (kind, label) ->
        ( label,
          List.map
            (fun pct ->
              let r =
                Workload.run { p0 with protocol = kind; update_txn_pct = pct }
              in
              (float_of_int pct, r))
            pcts ))
      protocols
  in
  let series_of f =
    List.map
      (fun (label, points) ->
        { label; points = List.map (fun (x, r) -> (x, f r)) points })
      runs
  in
  [ { id = "fig10-response";
      title = "Fig. 10 — response time vs update percentage";
      xlabel = "update transactions (%)";
      ylabel = "mean response time (ms)";
      series = series_of (fun r -> r.Workload.response.Dtx_util.Stats.mean) };
    { id = "fig10-deadlocks";
      title = "Fig. 10 — deadlocks vs update percentage";
      xlabel = "update transactions (%)";
      ylabel = "deadlock aborts";
      series = series_of (fun r -> float_of_int r.Workload.deadlocks) } ]

(* ------------------------------------------------------------------ *)

let fig11a ?(quick = false) () =
  let p0 = base_params quick in
  let sizes = if quick then [ 10.; 20.; 40. ] else [ 50.; 100.; 150.; 200. ] in
  let runs =
    List.map
      (fun (kind, label) ->
        ( label,
          List.map
            (fun mb ->
              let r = Workload.run { p0 with protocol = kind; base_size_mb = mb } in
              (mb, r))
            sizes ))
      protocols
  in
  let series_of f =
    List.map
      (fun (label, points) ->
        { label; points = List.map (fun (x, r) -> (x, f r)) points })
      runs
  in
  [ { id = "fig11a-response";
      title = "Fig. 11(a) — response time vs base size";
      xlabel = "base size (MB)";
      ylabel = "mean response time (ms)";
      series = series_of (fun r -> r.Workload.response.Dtx_util.Stats.mean) };
    { id = "fig11a-deadlocks";
      title = "Fig. 11(a) — deadlocks vs base size";
      xlabel = "base size (MB)";
      ylabel = "deadlock aborts";
      series = series_of (fun r -> float_of_int r.Workload.deadlocks) } ]

(* ------------------------------------------------------------------ *)

let fig11b ?(quick = false) () =
  let p0 = base_params quick in
  let site_counts = if quick then [ 2; 4 ] else [ 2; 4; 6; 8 ] in
  let runs =
    List.map
      (fun (kind, label) ->
        ( label,
          List.map
            (fun n ->
              let r = Workload.run { p0 with protocol = kind; n_sites = n } in
              (float_of_int n, r))
            site_counts ))
      protocols
  in
  let series_of f =
    List.map
      (fun (label, points) ->
        { label; points = List.map (fun (x, r) -> (x, f r)) points })
      runs
  in
  [ { id = "fig11b-response";
      title = "Fig. 11(b) — response time vs number of sites";
      xlabel = "sites";
      ylabel = "mean response time (ms)";
      series = series_of (fun r -> r.Workload.response.Dtx_util.Stats.mean) };
    { id = "fig11b-deadlocks";
      title = "Fig. 11(b) — deadlocks vs number of sites";
      xlabel = "sites";
      ylabel = "deadlock aborts";
      series = series_of (fun r -> float_of_int r.Workload.deadlocks) } ]

(* ------------------------------------------------------------------ *)

let fig12 ?(quick = false) () =
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

let all ?(quick = false) () =
  fig9 ~quick () @ fig10 ~quick () @ fig11a ~quick () @ fig11b ~quick ()
  @ fig12 ~quick ()

let named name =
  List.assoc_opt name
    [ ("fig9", fig9); ("fig10", fig10); ("fig11a", fig11a);
      ("fig11b", fig11b); ("fig12", fig12); ("all", all) ]
  |> Option.map (fun (driver : ?quick:bool -> unit -> figure list) ~quick ->
         driver ~quick ())

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
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (f.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv f);
  close_out oc;
  path

(* ------------------------------------------------------------------ *)

let last_point s =
  match List.rev s.points with (_, y) :: _ -> y | [] -> 0.0

let mean_points s =
  match s.points with
  | [] -> 0.0
  | pts -> List.fold_left (fun a (_, y) -> a +. y) 0.0 pts /. float_of_int (List.length pts)

let find_series fig label_prefix =
  List.find_opt
    (fun s ->
      String.length s.label >= String.length label_prefix
      && String.sub s.label 0 (String.length label_prefix) = label_prefix)
    fig.series

let check_pair fig ~expect_lower ~expect_higher =
  match (find_series fig expect_lower, find_series fig expect_higher) with
  | Some lo, Some hi -> (mean_points lo, mean_points hi)
  | _ -> (nan, nan)

let summary_table ?(quick = true) () =
  let rows = ref [] in
  let addf figure check expectation observed =
    rows := (figure, check, expectation, observed) :: !rows
  in
  let f9 = fig9 ~quick () in
  (match f9 with
   | [ total; partial ] ->
     let lo_t, hi_t = check_pair total ~expect_lower:"DTX (XDGL)" ~expect_higher:"DTX/Node2PL" in
     addf "Fig9/total" "XDGL < Node2PL" "XDGL responds faster"
       (Printf.sprintf "%.1f vs %.1f ms -> %s" lo_t hi_t
          (if lo_t < hi_t then "OK" else "MISMATCH"));
     let lo_p, hi_p = check_pair partial ~expect_lower:"DTX (XDGL)" ~expect_higher:"DTX/Node2PL" in
     addf "Fig9/partial" "XDGL < Node2PL" "XDGL responds faster"
       (Printf.sprintf "%.1f vs %.1f ms -> %s" lo_p hi_p
          (if lo_p < hi_p then "OK" else "MISMATCH"));
     (match (find_series partial "DTX (XDGL)", find_series total "DTX (XDGL)") with
      | Some p, Some t ->
        addf "Fig9/replication" "partial < total" "partial replication is faster"
          (Printf.sprintf "%.1f vs %.1f ms -> %s" (mean_points p) (mean_points t)
             (if mean_points p < mean_points t then "OK" else "MISMATCH"))
      | _ -> ())
   | _ -> ());
  let f10 = fig10 ~quick () in
  (match f10 with
   | [ resp; dls ] ->
     let lo, hi = check_pair resp ~expect_lower:"DTX (XDGL)" ~expect_higher:"DTX/Node2PL" in
     addf "Fig10/response" "XDGL < Node2PL under updates" "XDGL stays low"
       (Printf.sprintf "%.1f vs %.1f ms -> %s" lo hi
          (if lo < hi then "OK" else "MISMATCH"));
     let d_x, d_n = check_pair dls ~expect_lower:"DTX (XDGL)" ~expect_higher:"DTX/Node2PL" in
     addf "Fig10/deadlocks" "XDGL >= Node2PL" "finer locks -> more deadlocks"
       (Printf.sprintf "%.1f vs %.1f -> %s" d_x d_n
          (if d_x >= d_n then "OK" else "MISMATCH"))
   | _ -> ());
  let f12 = fig12 ~quick () in
  (match f12 with
   | [ tp; _ ] ->
     (match (find_series tp "DTX (XDGL)", find_series tp "DTX/Node2PL") with
      | Some x, Some n ->
        let mk s = match List.rev s.points with (t, y) :: _ -> (t, y) | [] -> (0., 0.) in
        let tx, cx = mk x and tn, cn = mk n in
        addf "Fig12/throughput" "XDGL finishes much earlier"
          "order-of-magnitude faster completion"
          (Printf.sprintf "XDGL: %.0f txns by %.0f ms; Node2PL: %.0f txns by %.0f ms -> %s"
             cx tx cn tn
             (if tx < tn then "OK" else "MISMATCH"))
      | _ -> ())
   | _ -> ());
  ignore last_point;
  List.rev !rows
