module Msg = Dtx_net.Msg
module Rng = Dtx_util.Rng

type window = { from_ms : float; until_ms : float }

let in_window w time = time >= w.from_ms && time < w.until_ms

type link = { l_src : int option; l_dst : int option }

let any_link = { l_src = None; l_dst = None }

let link_matches l ~src ~dst =
  (match l.l_src with None -> true | Some s -> s = src)
  && (match l.l_dst with None -> true | Some d -> d = dst)

type link_fault = {
  lf_window : window;
  lf_link : link;
  lf_kinds : Msg.Kind.t list;
  lf_drop_pct : int;
  lf_dup_pct : int;
  lf_delay_ms : float;
  lf_jitter_ms : float;
}

let fault_matches lf ~time ~src ~dst kind =
  in_window lf.lf_window time
  && link_matches lf.lf_link ~src ~dst
  && (lf.lf_kinds = [] || List.mem kind lf.lf_kinds)

type partition = { p_window : window; p_group : int list }

type crash = {
  c_site : int;
  c_at_ms : float;
  c_restart_after_ms : float option;
}

type t = {
  seed : int;
  horizon_ms : float;
  link_faults : link_fault list;
  partitions : partition list;
  crashes : crash list;
}

let empty ~seed ~horizon_ms =
  { seed; horizon_ms; link_faults = []; partitions = []; crashes = [] }

let lossy ~seed ~drop_pct =
  { (empty ~seed ~horizon_ms:infinity) with
    link_faults =
      [ { lf_window = { from_ms = 0.0; until_ms = infinity };
          lf_link = any_link;
          lf_kinds = [];
          lf_drop_pct = drop_pct;
          lf_dup_pct = 0;
          lf_delay_ms = 0.0;
          lf_jitter_ms = 0.0 } ] }

let crashed t ~time ~site =
  List.exists
    (fun c ->
      c.c_site = site
      && time >= c.c_at_ms
      &&
      match c.c_restart_after_ms with
      | None -> true
      | Some d -> time < c.c_at_ms +. d)
    t.crashes

let cut t ~time ~src ~dst =
  src <> dst
  && (crashed t ~time ~site:src
     || crashed t ~time ~site:dst
     || List.exists
          (fun p ->
            in_window p.p_window time
            && List.mem src p.p_group <> List.mem dst p.p_group)
          t.partitions)

(* ------------------------------------------------------------------ *)
(* Seeded plan generation                                              *)
(* ------------------------------------------------------------------ *)

(* Every generated fault self-heals inside the horizon: partitions close,
   crashed sites restart. Termination then only needs the protocol's
   retransmission/timeout machinery, not an oracle. *)
let random ~seed ~n_sites ~horizon_ms =
  let rng = Rng.create (0x9e3779b9 + seed) in
  let window ~max_len =
    let from_ms = Rng.float rng (horizon_ms *. 0.6) in
    let len = 5.0 +. Rng.float rng (Float.min max_len (horizon_ms *. 0.35)) in
    { from_ms; until_ms = Float.min (from_ms +. len) (horizon_ms *. 0.95) }
  in
  let n_link_faults = 1 + Rng.int rng 3 in
  let link_faults =
    List.init n_link_faults (fun _ ->
        let scoped = Rng.bool rng in
        let lf_link =
          if scoped && n_sites > 1 then
            if Rng.bool rng then
              { l_src = Some (Rng.int rng n_sites); l_dst = None }
            else { l_src = None; l_dst = Some (Rng.int rng n_sites) }
          else any_link
        in
        let lf_kinds =
          (* Half the faults target the unreliable workhorse kinds; the
             rest hit everything. *)
          if Rng.bool rng then [ Msg.Kind.Op_ship; Msg.Kind.Op_status ]
          else []
        in
        { lf_window = window ~max_len:(horizon_ms *. 0.5);
          lf_link;
          lf_kinds;
          lf_drop_pct = Rng.int_in rng 5 40;
          lf_dup_pct = Rng.int_in rng 5 35;
          lf_delay_ms = Rng.float rng 3.0;
          lf_jitter_ms = Rng.float rng 8.0 })
  in
  let partitions =
    if n_sites >= 2 && Rng.pct rng 60 then
      let k = 1 + Rng.int rng (n_sites / 2) in
      let sites = Array.init n_sites (fun i -> i) in
      Rng.shuffle rng sites;
      [ { p_window = window ~max_len:(horizon_ms *. 0.25);
          p_group = Array.to_list (Array.sub sites 0 k) } ]
    else []
  in
  let crashes =
    if n_sites >= 2 && Rng.pct rng 55 then
      let c_site = Rng.int rng n_sites in
      let c_at_ms = 10.0 +. Rng.float rng (horizon_ms *. 0.5) in
      [ { c_site;
          c_at_ms;
          c_restart_after_ms = Some (10.0 +. Rng.float rng (horizon_ms *. 0.2))
        } ]
    else []
  in
  { seed; horizon_ms; link_faults; partitions; crashes }

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_window ppf w =
  Format.fprintf ppf "[%.0f,%.0f)ms" w.from_ms w.until_ms

let pp_link ppf l =
  match (l.l_src, l.l_dst) with
  | None, None -> Format.fprintf ppf "*->*"
  | Some s, None -> Format.fprintf ppf "%d->*" s
  | None, Some d -> Format.fprintf ppf "*->%d" d
  | Some s, Some d -> Format.fprintf ppf "%d->%d" s d

let pp ppf t =
  Format.fprintf ppf "@[<v>plan seed=%d horizon=%.0fms" t.seed t.horizon_ms;
  List.iter
    (fun lf ->
      Format.fprintf ppf
        "@,  link %a %a drop=%d%% dup=%d%% delay=%.1f+%.1fms%s" pp_link
        lf.lf_link pp_window lf.lf_window lf.lf_drop_pct lf.lf_dup_pct
        lf.lf_delay_ms lf.lf_jitter_ms
        (if lf.lf_kinds = [] then ""
         else
           " kinds=" ^ String.concat ","
             (List.map Msg.Kind.to_string lf.lf_kinds)))
    t.link_faults;
  List.iter
    (fun p ->
      Format.fprintf ppf "@,  partition %a {%s | rest}" pp_window p.p_window
        (String.concat "," (List.map string_of_int p.p_group)))
    t.partitions;
  List.iter
    (fun c ->
      Format.fprintf ppf "@,  crash site %d at %.0fms%s" c.c_site c.c_at_ms
        (match c.c_restart_after_ms with
         | Some d -> Printf.sprintf " restart +%.0fms" d
         | None -> " (no restart)"))
    t.crashes;
  Format.fprintf ppf "@]"
