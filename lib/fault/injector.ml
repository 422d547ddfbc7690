module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Rng = Dtx_util.Rng
module Cluster = Dtx.Cluster

(* Send-time decision: the offsets list of every copy to deliver. [] drops
   the message; one zero offset is a normal delivery; an extra entry is a
   duplicate; positive offsets are extra delay — jittered copies overtake
   one another, which is where reordering comes from. *)
let offsets plan rng ~time ~src ~dst channel msg =
  if Fault_plan.cut plan ~time ~src ~dst then []
  else begin
    let kind = Msg.kind msg in
    let active =
      List.filter
        (fun lf -> Fault_plan.fault_matches lf ~time ~src ~dst kind)
        plan.Fault_plan.link_faults
    in
    if active = [] then [ 0.0 ]
    else begin
      let unreliable = channel = Net.Unreliable in
      let dropped =
        unreliable
        && List.exists
             (fun lf -> Rng.pct rng lf.Fault_plan.lf_drop_pct)
             active
      in
      if dropped then []
      else begin
        let delay_of () =
          List.fold_left
            (fun acc lf ->
              acc +. lf.Fault_plan.lf_delay_ms
              +.
              if lf.Fault_plan.lf_jitter_ms > 0.0 then
                Rng.float rng lf.Fault_plan.lf_jitter_ms
              else 0.0)
            0.0 active
        in
        let first = delay_of () in
        let duplicated =
          unreliable
          && List.exists
               (fun lf -> Rng.pct rng lf.Fault_plan.lf_dup_pct)
               active
        in
        if duplicated then [ first; delay_of () ] else [ first ]
      end
    end
  end

let install cluster plan =
  (* The injector's own stream: plan decisions stay seeded. *)
  let rng = Rng.create (plan.Fault_plan.seed lxor 0x5DEECE66) in
  Net.set_fault (Cluster.net cluster)
    (Some
       { Net.f_offsets = offsets plan rng;
         f_deliverable =
           (fun ~time ~src ~dst ->
             not (Fault_plan.cut plan ~time ~src ~dst)) });
  let sim = Cluster.sim cluster in
  List.iter
    (fun (c : Fault_plan.crash) ->
      ignore
        (Sim.schedule_at sim ~time:c.Fault_plan.c_at_ms (fun () ->
             Cluster.crash_site cluster ~site:c.Fault_plan.c_site));
      match c.Fault_plan.c_restart_after_ms with
      | None -> ()
      | Some d ->
        ignore
          (Sim.schedule_at sim
             ~time:(c.Fault_plan.c_at_ms +. d)
             (fun () ->
               Cluster.restart_site cluster ~site:c.Fault_plan.c_site)))
    plan.Fault_plan.crashes
